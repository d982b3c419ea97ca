"""Deterministic event-driven engine for the Look-Compute-Move model.

The engine advances a priority queue of timestamped events.  Each *process*
is a Python generator owning a group of co-located robots, a team moving as
one (:mod:`repro.sim.actions` maps the robots' capabilities to actions):
resuming the generator yields the next :class:`~repro.sim.actions.Action`,
whose completion schedules the next resume.  Time-free actions (``Look``,
``Wake``, ``Fork``, ``Absorb``, ``Annotate``) are executed synchronously in
a loop until the process either blocks on a timed action or a barrier, or
returns.

Determinism: events at equal times are ordered by a monotone sequence
number, and barrier payload lists are ordered by arrival; re-running the
same instance and programs reproduces the identical trace.

Makespan accounting follows the paper: the makespan of an execution is the
time of the last wake; the engine also reports the full termination time
(last process finishing its moves), which upper-bounds it.

Hot-path design: actions dispatch through a type->handler table (no
isinstance ladder); trace events are guarded at the call site so a disabled
trace never allocates; each process caches its team speed (the slowest
member); snapshots are memoized per ``(time, center)`` between world
mutations, so the repeated Looks of a stationary cohort do not rebuild and
re-sort identical views; and Look sees awake robots grouped by shared
trajectory.  A *site* holds everything stationary at one exact point
(processes and idle robots, with a cached view tuple); a *convoy* holds the
processes in flight on one identical straight segment.  A Look tests one
distance per site and interpolates once per convoy, however large the
cohorts.  A :class:`~repro.sim.actions.TeamSweep` is one *flight*: every
robot is charged its run in one pass over the shared lattice hops, the
whole team is one padded box in the Look index, and its robots get
generator-less stand-in processes on their own runs only when a Look
lands in that box — one queue event per team.  A
:class:`~repro.sim.actions.Tour` flies a process over its legs and waits
as one piecewise path, for one queue event per walk; the processes that
issue one tour object from one point at one instant and speed share a
convoy and its timetable.  A sleepers-only Look (AGrid's cell
explorations take nothing else) is served from the sleeping index alone,
with no site or convoy scan and no memo, so a run whose Looks are all
sleepers-only never builds the sites' grid hash or the mover index.
None of it changes what a robot sees or when: makespans, energies,
cache keys and traces are pinned by ``tests/sim/test_golden_trace.py``
(a TeamSweep's trace only lacks the process bookkeeping of the fork path
it replaces, a Tour's has one ``move`` entry for its legs' entries, a
sleepers-only Look's ``look`` entry counts the sleepers it returned),
and every Look is checked against a brute-force oracle by
``tests/sim/test_look_oracle.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial, reduce
from operator import add, truediv
from typing import Any, Callable, Dict, Generator, Sequence

import numpy as _np

from ..geometry import (
    EPS,
    GridHash,
    Point,
    close_to,
)
from .actions import (
    Absorb,
    Action,
    Annotate,
    Barrier,
    Fork,
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
from .errors import (
    AbsorbError,
    BarrierError,
    CoLocationError,
    EnergyBudgetExceeded,
    ForkError,
    ProtocolError,
    RunawayProcessError,
    SimulationDeadlock,
    WakeError,
)
from .trace import Trace
from .world import CO_LOCATION_TOL, World

__all__ = ["Engine", "ProcessView", "SimulationResult"]

#: Hard cap on consecutive zero-time actions per resume, to turn infinite
#: compute loops into a diagnosable error instead of a hang.
_MAX_IMMEDIATE_ACTIONS = 2_000_000



class _Process:
    """Engine-internal process record."""

    __slots__ = (
        "pid",
        "generator",
        "robot_ids",
        "position",
        "started",
        "speed",
        "site",
        "convoy",
        "motion_from",
        "motion_start",
        "motion_to",
        "motion_end",
        "motion_path",
        "motion_ends",
        "flight",
    )

    def __init__(
        self,
        pid: int,
        generator: Generator[Action, Result, None] | None,
        robot_ids: list[int],
        position: Point,
        speed: float,
    ) -> None:
        self.pid = pid
        self.generator = generator
        self.robot_ids = robot_ids
        self.position = position
        self.started = False
        #: Cached team speed: the slowest member (the team moves together).
        #: Maintained on every membership change instead of rescanned per
        #: move — robot speeds are fixed at world construction.
        self.speed = speed
        #: Where Look finds this process: the :class:`_Site` it stands on
        #: while stationary, the :class:`_Convoy` it rides while moving
        #: (exactly one of the two is set for a live process).
        self.site: _Site | None = None
        self.convoy: _Convoy | None = None
        # Motion state, set while the process is moving (``motion_to`` is
        # not None); lets other processes interpolate this process's
        # position for Look snapshots.
        self.motion_from: Point | None = None
        self.motion_start = 0.0
        self.motion_to: Point | None = None
        self.motion_end = 0.0
        # Piecewise motion state for a Sweep or a Tour: the path plus the
        # parallel per-segment end-time list for bisection (segment ``i``
        # runs waypoint ``i-1`` -> ``i`` over ``ends[i-1]..ends[i]``, with
        # the origin/start filling in at ``i == 0``; a tour's convoy
        # shares one list).  None while in plain segment mode.
        self.motion_path: Sweep | Tour | None = None
        self.motion_ends: list[float] | None = None
        #: While a TeamSweep is in flight: the flight Look finds its robots
        #: through.
        self.flight: _Flight | None = None

    def start_sweep(
        self,
        origin: Point,
        now: float,
        run: Sweep | Tour,
        target: Point,
        ends: list[float],
    ) -> None:
        """Put the process in flight on ``run`` (a lattice run or a tour)
        from ``origin`` at ``now``, reaching ``target`` at ``ends[-1]``
        (``ends``: per-segment ends)."""
        self.motion_from = origin
        self.motion_start = now
        self.motion_to = target
        self.motion_end = ends[-1]
        self.motion_path = run
        self.motion_ends = ends

    def position_at(self, time: float) -> Point:
        """Interpolated position at ``time`` (the Move-chain value)."""
        return Point(*self.xy_at(time))

    def xy_at(self, time: float) -> tuple[float, float]:
        """Raw interpolated coordinates — ``position_at`` minus the Point.

        The snapshot mover scan probes every candidate convoy per Look; a
        sweep's whole-run bbox admits many candidates that an exact
        distance check then rejects, so the probe must not allocate a
        Point.  A sweep's active segment is found by bisecting its end
        times and its endpoints are indexed out of the lattice run.  The
        arithmetic replicates :func:`~repro.geometry.convex_combination`
        exactly — a hit converts to the identical ``Point``.
        """
        if self.motion_to is None:
            p = self.position
            return p[0], p[1]
        if time >= self.motion_end:
            p = self.motion_to
            return p[0], p[1]
        if time <= self.motion_start:
            p = self.motion_from
            return p[0], p[1]
        run = self.motion_path
        if run is not None:
            # Boundary times resolve to the shared waypoint either way,
            # exactly as the per-segment event chain would report.
            ends = self.motion_ends
            i = bisect_left(ends, time)
            if i >= len(ends):
                p = self.motion_to
                return p[0], p[1]
            seg_end = ends[i]
            b = run.waypoint(i)
            if time >= seg_end:
                return b[0], b[1]
            if i > 0:
                seg_start = ends[i - 1]
                a = run.waypoint(i - 1)
            else:
                seg_start = self.motion_start
                a = self.motion_from
            if time <= seg_start or a is b:
                # ``a is b`` is a tour's wait: the corner itself, so a
                # signed zero reads as it does on a parked process.
                return a[0], a[1]
            span = seg_end - seg_start
            t = (time - seg_start) / span if span > 0 else 1.0
        else:
            a, b = self.motion_from, self.motion_to
            span = self.motion_end - self.motion_start
            t = (time - self.motion_start) / span if span > 0 else 1.0
        return a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t


class ProcessView:
    """What a program may know about its own process.

    This is the process's *local* state — id, owned robots, position and the
    global clock the model grants every awake robot — never information
    about other robots (that must come from ``Look`` or exchanges).
    """

    def __init__(self, engine: "Engine", pid: int) -> None:
        self._engine = engine
        self.pid = pid

    @property
    def robot_ids(self) -> tuple[int, ...]:
        return tuple(self._engine._processes[self.pid].robot_ids)

    @property
    def position(self) -> Point:
        return self._engine._processes[self.pid].position

    @property
    def time(self) -> float:
        return self._engine.now

    @property
    def team_size(self) -> int:
        return len(self._engine._processes[self.pid].robot_ids)

    @property
    def speed(self) -> float:
        """The team's speed: its slowest member's (own state)."""
        return self._engine._processes[self.pid].speed

    @property
    def min_remaining_budget(self) -> float:
        """Smallest remaining energy over owned robots (own-state only).

        A robot knows its own odometer and budget; the team minimum is
        what bounds the next shared move.  Batched sweeps consult this to
        fall back to per-stop moves near the budget, so an
        :class:`~repro.sim.errors.EnergyBudgetExceeded` abort happens at
        exactly the same point (and simulation time) as a legacy walk.
        """
        robots = self._engine.world.robots
        return min(
            robots[rid].budget - robots[rid].odometer
            for rid in self._engine._processes[self.pid].robot_ids
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessView(pid={self.pid}, robots={self.robot_ids})"


class _BarrierState:
    __slots__ = ("parties", "arrived", "payloads", "released")

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self.arrived: list[int] = []
        self.payloads: list[Any] = []
        self.released = False


@dataclass
class SimulationResult:
    """Outcome of a simulation run."""

    makespan: float            # time of the last wake (paper's makespan)
    termination_time: float    # last event processed (moves/waits included)
    woke_all: bool
    awake_count: int
    n: int
    max_energy: float          # max per-robot odometer
    total_energy: float
    snapshots: int
    trace: Trace
    wake_times: dict[int, float]
    #: Queue events processed to produce this result — the denominator of
    #: the ``events/sec`` throughput metric in ``freezetag bench``.
    events_processed: int = 0

    def summary(self) -> str:
        status = "all awake" if self.woke_all else f"{self.awake_count}/{self.n + 1} awake"
        return (
            f"makespan={self.makespan:.3f} end={self.termination_time:.3f} "
            f"({status}) max_energy={self.max_energy:.3f} looks={self.snapshots}"
        )


class Engine:
    """Discrete-event executor for robot-process programs."""

    def __init__(self, world: World, trace: Trace | None = None) -> None:
        self.world = world
        self.trace = trace if trace is not None else Trace()
        self.now = 0.0
        self.visibility_radius = world.visibility_radius
        self._processes: Dict[int, _Process] = {}
        self._owned: set[int] = set()        # robots owned by a live process
        # Awake robots as Look sees them, grouped by shared trajectory.
        # Sites: one per exact point, holding the stationary processes and
        # idle robots (awake, no live process) there.  Their spatial index
        # is built by the first full Look that needs it (see _do_look), so
        # runs that never Look past a handful of sites, or Look only for
        # sleepers, never maintain one.
        self._sites: dict[Point, _Site] = {}
        self._site_index: GridHash | None = None
        self._idle: dict[int, _Site] = {}  # idle robot -> its site
        # Convoys: one per identical straight segment in flight (sweeps
        # ride alone), scanned with one interpolation each.
        self._convoys: dict[Any, _Convoy] = {}
        # Vectorized convoy-bbox index, engaged by a full Look only when
        # many convoys move concurrently (see _MOVER_INDEX_ON); None =
        # plain loop mode.
        self._movers: _MoverIndex | None = None
        # Memoized snapshot views per (time, center), flushed on any world
        # mutation (wake, motion, process lifecycle).  Between mutations
        # the world is static, so equal probes yield identical views.
        self._look_cache: dict[tuple[float, Point], tuple[RobotView, ...]] = {}
        # Immortal per-robot sleeping views: a sleeping robot never moves,
        # so its RobotView is constant until it wakes (after which it never
        # reappears in sleeping candidates) — build each exactly once.
        self._sleep_views: dict[int, RobotView] = {}
        self._barriers: Dict[Any, _BarrierState] = {}
        self._queue: list[tuple[float, int, int, Any]] = []
        self._seq = itertools.count()
        self._pid_counter = itertools.count()
        self._started = False
        #: Total events popped off the queue — the denominator of the
        #: ``events/sec`` throughput metric in ``freezetag bench``.
        self.events_processed = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def spawn(
        self,
        program: Program,
        robot_ids: Sequence[int],
        position: Point | None = None,
    ) -> int:
        """Create a process owning ``robot_ids`` and schedule its start.

        All robots must be awake, unowned, and co-located; ``position``
        defaults to the first robot's current position.
        """
        ids = list(robot_ids)
        if not ids:
            raise ProtocolError("a process needs at least one robot")
        robots = self.world.robots
        for rid in ids:
            robot = robots[rid]
            if not robot.awake:
                raise ProtocolError(f"robot {rid} is asleep; cannot join a process")
            if rid in self._owned:
                raise ProtocolError(f"robot {rid} is already owned by a process")
        base = robots[ids[0]].position if position is None else position
        for rid in ids:
            if not close_to(robots[rid].position, base, CO_LOCATION_TOL):
                raise CoLocationError(f"robot {rid} is not at {base}")
            if rid in self._idle:
                self._unidle(rid)
            self._owned.add(rid)
        speed = min(robots[rid].speed for rid in ids)
        pid = self._start(program, ids, base, speed)
        self._look_cache.clear()
        return pid

    def run(self, until: float | None = None) -> SimulationResult:
        """Process events until the queue drains (or ``until`` is reached)."""
        self._started = True
        queue = self._queue
        processes = self._processes
        heappop = heapq.heappop
        while queue:
            if until is not None:
                time, seq, pid, value = queue[0]
                if time > until:
                    # Leave the event queued untouched (original sequence
                    # number included): an equal-time event scheduled
                    # *later* must not overtake it after the pause — a
                    # paused-and-resumed run must replay the exact event
                    # order of an uninterrupted run.
                    break
            time, seq, pid, value = heappop(queue)
            self.events_processed += 1
            if time > self.now:
                self.now = time
            proc = processes.get(pid)
            if proc is None:
                continue
            if type(value.value) is _Step:
                # An engine-internal step (a team sweep's hop or landing):
                # the generator is not resumed yet.
                value.value.advance()
                continue
            self._resume(proc, value)
        if until is None and self._blocked_parties():
            raise SimulationDeadlock(
                "event queue drained with processes blocked on barriers: "
                + ", ".join(
                    f"{key!r} ({len(st.arrived)}/{st.parties})"
                    for key, st in self._barriers.items()
                    if not st.released
                )
            )
        return self._result()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _blocked_parties(self) -> bool:
        return any(not st.released and st.arrived for st in self._barriers.values())

    def _start(
        self, program: Program, ids: list[int], position: Point, speed: float
    ) -> int:
        """Create a process owning ``ids`` at ``position``, stand it there
        and schedule its first step now; returns its pid."""
        pid = next(self._pid_counter)
        proc = _Process(pid, program(ProcessView(self, pid)), ids, position, speed)
        self._processes[pid] = proc
        self._park(proc)
        self._schedule(self.now, pid, Result(self.now, None))
        trace = self.trace
        if trace.enabled:
            trace.append(self.now, "process_start", pid, {"robots": list(ids)})
        return pid

    def _schedule(self, time: float, pid: int, value: Result) -> None:
        heapq.heappush(self._queue, (time, next(self._seq), pid, value))

    def _resume(self, proc: _Process, value: Result) -> None:
        # Complete any in-flight motion bookkeeping.  Robot records are
        # *not* synced here: a process is the single source of truth for
        # its robots' positions while it owns them, and the engine writes
        # them back at the observation points (finish, wake, absorb) — a
        # per-move per-robot sync would be O(team) on every segment.
        if proc.motion_to is not None:
            proc.position = proc.motion_to
            proc.motion_from = proc.motion_to = None
            proc.motion_path = proc.motion_ends = None
            self._leave_convoy(proc)
            self._park(proc)
            self._look_cache.clear()

        generator = proc.generator
        handlers_get = _HANDLERS.get
        for _ in range(_MAX_IMMEDIATE_ACTIONS):
            try:
                if proc.started:
                    action = generator.send(value)
                else:
                    proc.started = True
                    action = generator.send(None)
            except StopIteration:
                self._finish(proc)
                return
            # One dict probe on the exact type, so a subclass of a shipped
            # action is an unknown action.
            handler = handlers_get(action.__class__)
            if handler is None:
                raise ProtocolError(f"unknown action {action!r}")
            handled = handler(self, proc, action)
            if handled is None:
                return  # process blocked or scheduled for later
            value = handled

        raise RunawayProcessError(
            f"process {proc.pid} issued more than {_MAX_IMMEDIATE_ACTIONS} "
            "zero-time actions in a row"
        )

    def _finish(self, proc: _Process) -> None:
        position = proc.position
        robots = self.world.robots
        for rid in proc.robot_ids:
            robots[rid].position = position  # lazy sync point
            self._make_idle(rid, position)
            self._owned.discard(rid)
        self._unpark(proc)
        # The look memo survives a process end: the robots park exactly
        # where the process stood, so every cached view of them (awake, at
        # this position) keeps the same value when rebuilt from their
        # site.  Keeping the memo is what makes a cohort gather O(k):
        # thousands of same-instant Looks at one corner, where each
        # follower finishing between Looks used to flush the cache and
        # force an O(k) rebuild per participant.
        trace = self.trace
        if trace.enabled:
            trace.append(
                self.now, "process_end", proc.pid, {"robots": list(proc.robot_ids)}
            )
        del self._processes[proc.pid]
        # Idle robots keep their last (already synced) positions and remain
        # visible to Look through their site.

    # -- handlers (uniform ``(self, proc, action)`` signature) --------------
    # Dispatched through the module-level _HANDLERS type table (inlined in
    # _resume).  A handler returns a Result when the action completed
    # instantly (fed straight back into the generator) or None when the
    # process was re-scheduled / blocked.
    def _handle_move(self, proc: _Process, action: Move) -> None:
        # The hottest action: the length is computed exactly once.
        target = action.target
        position = proc.position
        length = math.hypot(position[0] - target[0], position[1] - target[1])
        robots = self.world.robots
        for rid in proc.robot_ids:
            robot = robots[rid]
            if robot.odometer + length > robot.budget + 1e-9:
                raise EnergyBudgetExceeded(
                    rid, robot.odometer + length, robot.budget
                )
        if length <= EPS:
            return self._arrive_now(proc, target)
        for rid in proc.robot_ids:
            robots[rid].odometer += length
        now = self.now
        return self._fly(proc, position, target, length, now + length / proc.speed, "move")

    def _fly(
        self,
        proc: _Process,
        position: Point,
        target: Point,
        length: float,
        end: float,
        kind: str,
    ) -> None:
        """Put ``proc``, already charged ``length``, in flight on the
        straight segment ``position -> target`` from now until ``end``, in
        the convoy of that segment; trace it as a ``kind`` entry."""
        self._unpark(proc)
        self._look_cache.clear()
        now = self.now
        proc.motion_from = position
        proc.motion_start = now
        proc.motion_to = target
        proc.motion_end = end
        self._join_convoy(proc, _segment_key(position, target, now, end))
        self._schedule(end, proc.pid, Result(end, None))
        trace = self.trace
        if trace.enabled:
            trace.append(
                now, kind, proc.pid,
                {
                    "length": length, "to": target,
                    "waypoints": 1, "robots": len(proc.robot_ids),
                },
            )
        return None

    def _arrive_now(self, proc: _Process, target: Point) -> None:
        """Complete a motion that takes no time: ``proc`` is at ``target``
        at once, and resumes at this instant (Move's teleport)."""
        self._reposition(proc, target)
        now = self.now
        self._schedule(now, proc.pid, Result(now, None))
        return None

    def _handle_sweep(self, proc: _Process, action: Sweep) -> None:
        count = _check_run(action)
        if count > 1:
            return self._sweep_lattice(proc, action, count)
        # One waypoint (most of an AWave run's sweeps: a hop between two
        # hot stops, or the tail alone): Move's arithmetic — the same
        # hypot, charge and ``now + length / speed`` — and Move's segment
        # flight, which interpolates as the lattice path does.  Only the
        # teleport guard is the lattice path's: a sweep completes at once
        # whenever its arrival time is now, even when the hop exceeds EPS.
        target = _run_end(action, 1)
        position = proc.position
        length = math.hypot(position[0] - target[0], position[1] - target[1])
        robots = self.world.robots
        _charge_checked([robots[rid] for rid in proc.robot_ids], (length,))
        now = self.now
        end = now + length / proc.speed if length > EPS else now
        if end <= now:
            return self._arrive_now(proc, target)
        return self._fly(proc, position, target, length, end, "sweep")

    def _sweep_lattice(self, proc: _Process, action: Sweep, count: int) -> None:
        # A lattice run: observationally identical to one Move per
        # waypoint — same per-segment budget checks and odometer charges
        # (in the same float-op order), same sequential arrival-time
        # accumulation, same interpolated positions for observers — but
        # the queue sees a single event at the final arrival, and no
        # per-stop object is built.
        robots = self.world.robots
        team = [robots[rid] for rid in proc.robot_ids]
        position = proc.position
        now = self.now
        lengths = action.segment_lengths(position)
        ends = _ends(_charge(team, lengths), now, proc.speed)
        t = ends[-1]
        target = _run_end(action, count)
        if t <= now:
            # Degenerate all-tiny sweep: complete immediately, like a
            # zero-length move.
            return self._arrive_now(proc, target)
        self._unpark(proc)
        self._look_cache.clear()
        proc.start_sweep(position, now, action, target, ends)
        # A sweep rides alone: its convoy is keyed by the process itself.
        self._join_convoy(proc, proc)
        self._schedule(t, proc.pid, Result(t, None))
        trace = self.trace
        if trace.enabled:
            trace.append(
                now, "sweep", proc.pid,
                {
                    "length": reduce(add, lengths, 0.0), "to": target,
                    "waypoints": count, "robots": len(team),
                },
            )
        return None

    def _handle_teamsweep(self, proc: _Process, action: TeamSweep) -> None:
        # The fork path of a team exploration that needs no Look — one
        # child process per robot sweeping its own run, a barrier where
        # the runs end, then ``Wait(0.0)`` and an absorb — as one event
        # (and the children's start hop when a child is last, below).
        # Each robot is charged its run at its own speed, as its child
        # would be, in one pass that builds nothing per stop and one list
        # of segment lengths per distinct strip axis; the team enters the
        # Look index as one flight, which places its robots where their
        # children would be only when a Look lands in its box.
        ids = proc.robot_ids
        if len(action) != len(ids):
            raise ProtocolError(
                f"team sweep has {len(action)} runs for {len(ids)} robots"
            )
        robots = self.world.robots
        team = [robots[rid] for rid in ids]
        position = proc.position
        now = self.now
        flight = _Flight(proc.pid, action, team, position, now)
        trace = self.trace
        strip_stops = len(action.xs)
        tail = action.arrive_at is not None
        arrivals = []
        strips = action.strip_lengths(position)
        for i, (robot, lengths) in enumerate(zip(team, strips)):
            charged = _charge((robot,), lengths)
            speed = robot.speed
            if speed != 1.0:
                charged = map(truediv, charged, itertools.repeat(speed))
            arrivals.append(reduce(add, charged, now))
            if trace.enabled:
                trace.append(
                    now, "sweep", proc.pid,
                    {
                        "length": reduce(add, lengths, 0.0), "to": flight.meet,
                        "waypoints": strip_stops * len(action.rows[i]) + tail,
                        "robots": 1,
                    },
                )
        self._unpark(proc)
        self._look_cache.clear()
        self._index(flight)
        proc.flight = flight
        last = max(arrivals)
        pid = proc.pid
        landing = Result(last, _Step(partial(self._land_team, proc)))
        if max(arrivals[1:], default=-math.inf) >= arrivals[0]:
            # The last party at the fork path's barrier is a child (ties
            # go to the children, queued after the caller), and a child's
            # arrival is queued one same-instant hop after the fork, when
            # the child starts: queue the landing from that hop too.
            queue_landing = partial(self._schedule, last, pid, landing)
            self._schedule(now, pid, Result(now, _Step(queue_landing)))
        else:
            self._schedule(last, pid, landing)
        return None

    def _land_team(self, proc: _Process) -> None:
        """The last robot of a team sweep arrived: regroup where the runs end."""
        flight = proc.flight
        proc.flight = None
        self._unindex(flight)
        position = proc.position = flight.meet
        robots = self.world.robots
        for rid in proc.robot_ids:
            robots[rid].position = position
        self._park(proc)
        self._look_cache.clear()
        # Resume after the fork path's two same-instant hops — the barrier
        # release, then explore_rect_team's Wait(0.0) — so that events at
        # this instant interleave with the program exactly as they would.
        now = self.now
        pid = proc.pid
        self._schedule(
            now, pid, Result(now, _Step(partial(self._schedule, now, pid, Result(now, None))))
        )

    def _handle_tour(self, proc: _Process, action: Tour) -> None:
        # A Move then a WaitUntil per leg, as one event: every leg is
        # checked and charged now, in the chain's order, and the process
        # flies the legs and waits as one piecewise path.  Processes that
        # issue this tour from this point at this instant and speed would
        # walk bit-identical timetables, so they share a convoy and its
        # list of segment ends.
        robots = self.world.robots
        team = [robots[rid] for rid in proc.robot_ids]
        position = proc.position
        now = self.now
        lengths = action.leg_lengths(position)
        _charge_checked(team, lengths)
        key = _tour_key(action, position, now, proc.speed)
        convoy = self._convoys.get(key)
        if convoy is None:
            ends = action.timetable(lengths, now, proc.speed)
        else:
            ends = convoy.members[0].motion_ends
        t = ends[-1]
        target = action.corners[-1]
        if t <= now:
            # Teleports and past waits only: complete at once, like a
            # zero-length move.
            return self._arrive_now(proc, target)
        self._unpark(proc)
        self._look_cache.clear()
        proc.start_sweep(position, now, action, target, ends)
        self._join_convoy(proc, key)
        self._schedule(t, proc.pid, Result(t, None))
        trace = self.trace
        if trace.enabled:
            # One entry for the legs' Move entries: only real legs charge.
            walked = [length for length in lengths if length > EPS]
            if walked:
                trace.append(
                    now, "move", proc.pid,
                    {
                        "length": reduce(add, walked, 0.0), "to": target,
                        "waypoints": len(lengths), "robots": len(team),
                    },
                )
        return None

    def _handle_wait(self, proc: _Process, action: Wait) -> None:
        if action.duration < -EPS:
            raise ProtocolError(f"negative wait: {action.duration}")
        wake_at = self.now + max(0.0, action.duration)
        self._schedule(wake_at, proc.pid, Result(wake_at, None))
        return None

    def _handle_waituntil(self, proc: _Process, action: WaitUntil) -> None:
        wake_at = max(self.now, action.time)
        self._schedule(wake_at, proc.pid, Result(wake_at, None))
        return None

    # Look dispatches straight to _do_look (which wraps its own Result):
    # one call frame per snapshot matters at 10^5+ looks per run.

    def _handle_wake(self, proc: _Process, action: Wake) -> Result:
        return Result(self.now, self._do_wake(proc, action))

    def _handle_fork(self, proc: _Process, action: Fork) -> Result:
        return Result(self.now, self._do_fork(proc, action))

    def _handle_barrier(self, proc: _Process, action: Barrier) -> None:
        return self._do_barrier(proc, action)

    def _handle_absorb(self, proc: _Process, action: Absorb) -> Result:
        return Result(self.now, self._do_absorb(proc, action))

    def _handle_annotate(self, proc: _Process, action: Annotate) -> Result:
        trace = self.trace
        if trace.enabled:
            trace.append(
                self.now, "phase", proc.pid,
                {"label": action.label, "data": action.data},
            )
        return Result(self.now, None)

    # -- Look grouping: sites and convoys ------------------------------------
    def _site_at(self, point: Point) -> _Site:
        """The site at ``point``, created on first use; its views go stale
        because the caller is about to add to it."""
        site = self._sites.get(point)
        if site is None:
            site = self._sites[point] = _Site(point)
            if self._site_index is not None:
                self._site_index.insert(site, point)
        else:
            site.views = None
        return site

    def _drop_from_site(self, site: _Site) -> None:
        """Forget ``site`` once nothing stands on it, else stale its views."""
        if site.procs or site.idle:
            site.views = None
        else:
            del self._sites[site.point]
            if self._site_index is not None:
                self._site_index.remove(site)

    def _park(self, proc: _Process) -> None:
        """Stand a stationary process on the site of its position."""
        site = proc.site = self._site_at(proc.position)
        site.procs.append(proc)

    def _unpark(self, proc: _Process) -> None:
        site = proc.site
        proc.site = None
        site.procs.remove(proc)
        self._drop_from_site(site)

    def _reposition(self, proc: _Process, target: Point) -> None:
        """Complete a zero-length move: the process stays stationary."""
        site = proc.site
        if target == site.point:
            # Same site; the views still change if ``target`` differs from
            # the old position in the sign of a zero.
            proc.position = target
            site.views = None
        else:
            self._unpark(proc)
            proc.position = target
            self._park(proc)
        self._look_cache.clear()

    def _make_idle(self, rid: int, point: Point) -> None:
        """Park an awake robot that no live process owns at ``point``."""
        site = self._idle[rid] = self._site_at(point)
        site.idle[rid] = RobotView(rid, point, True)

    def _unidle(self, rid: int) -> None:
        site = self._idle.pop(rid)
        del site.idle[rid]
        self._drop_from_site(site)

    def _join_convoy(self, proc: _Process, key: Any) -> None:
        convoy = self._convoys.get(key)
        if convoy is None:
            convoy = _Convoy(key, proc)
            self._index(convoy)
        else:
            convoy.members.append(proc)
        proc.convoy = convoy

    def _leave_convoy(self, proc: _Process) -> None:
        convoy = proc.convoy
        proc.convoy = None
        members = convoy.members
        members.remove(proc)
        if not members:
            self._unindex(convoy)

    def _index(self, entry: _Convoy | _Flight) -> None:
        """Enter a convoy or a flight in the Look index."""
        self._convoys[entry.key] = entry
        movers = self._movers
        if movers is not None:
            movers.put(entry, entry.padded_bbox(self.visibility_radius))

    def _unindex(self, entry: _Convoy | _Flight) -> None:
        del self._convoys[entry.key]
        movers = self._movers
        if movers is not None:
            movers.discard(entry)
            if len(self._convoys) < _MOVER_INDEX_OFF:
                self._movers = None

    # -- instantaneous actions -------------------------------------------
    def _do_look(self, proc: _Process, action: Look) -> Result:
        center = proc.position
        if action.sleepers_only:
            # The sleeping index alone: no site or convoy scan, so a run
            # whose every Look is sleepers-only never builds either awake
            # index; and no memo, which holds full snapshots.
            build = self._sleepers_seen(center)
            build.sort()
            return self._snapshot(proc, tuple(build))
        # The (time, center) memo only pays off for co-located cohorts:
        # a later Look from this point at this instant, with no world
        # mutation in between, comes from a process already standing on
        # this site (one that arrives, starts or forks here flushes the
        # memo).  So a Look is stored only when another process stands
        # here, and the memo is probed only when it holds something.
        look_cache = self._look_cache
        views = look_cache.get((self.now, center)) if look_cache else None
        if views is None:
            radius = self.visibility_radius
            build = self._sleepers_seen(center)
            # Awake robots, one distance test per site (stationary teams
            # and idle robots sharing a point) and one interpolation per
            # convoy (movers sharing a segment).
            cx, cy = center
            limit = radius + EPS
            hyp = math.hypot
            sites = self._sites
            if len(sites) == 1:
                # Only the observer's own site exists (it is looking, so it
                # is stationary): no query needed.
                site_hits = [proc.site]
            elif len(sites) <= 6:
                # Few sites: a direct closed-ball scan (the oracle predicate
                # itself) beats the 3x3 cell walk.
                site_hits = [
                    site
                    for point, site in sites.items()
                    if hyp(point[0] - cx, point[1] - cy) <= limit
                ]
            else:
                index = self._site_index
                if index is None:
                    index = self._site_index = GridHash(cell_size=radius)
                    for point, site in sites.items():
                        index.insert(site, point)
                site_hits = [site for site, _point in index.query_ball(center, radius)]
            for site in site_hits:
                cached = site.views
                if cached is None:
                    cached = site.views = site.build_views()
                build.extend(cached)
            convoys = self._convoys
            if convoys:
                movers = self._movers
                if movers is None and len(convoys) > _MOVER_INDEX_ON:
                    # Too many concurrent convoys for a per-look Python
                    # scan: build the vectorized bbox index (maintained
                    # incrementally from here on).
                    movers = self._movers = _MoverIndex()
                    for convoy in convoys.values():
                        movers.put(convoy, convoy.padded_bbox(radius))
                if movers is not None:
                    convoy_hits = movers.candidates(cx, cy)
                else:
                    convoy_hits = []
                    for convoy in convoys.values():
                        bbox = convoy.padded_bbox(radius)
                        if bbox[0] <= cx <= bbox[2] and bbox[1] <= cy <= bbox[3]:
                            convoy_hits.append(convoy)
                now = self.now
                for convoy in convoy_hits:
                    if convoy.__class__ is _Flight:
                        # A team sweep: probe every robot on its own
                        # stand-in.
                        for member in convoy.members():
                            ox, oy = member.xy_at(now)
                            if hyp(ox - cx, oy - cy) <= limit:
                                build.append(
                                    RobotView(member.robot_ids[0], Point(ox, oy), True)
                                )
                        continue
                    # Allocation-free probe (sweep bboxes admit many
                    # candidates); materialize the Point only on a hit.
                    ox, oy = convoy.members[0].xy_at(now)
                    if hyp(ox - cx, oy - cy) <= limit:
                        pos = Point(ox, oy)
                        for member in convoy.members:
                            for rid in member.robot_ids:
                                build.append(RobotView(rid, pos, True))
            # Plain tuple sort: robot ids are unique and lead each view,
            # so natural ordering equals sorting by id — without the
            # key-extraction pass (positions never get compared).
            build.sort()
            views = tuple(build)
            if len(proc.site.procs) > 1:
                look_cache[(self.now, center)] = views
        return self._snapshot(proc, views)

    def _sleepers_seen(self, center: Point) -> list[RobotView]:
        """The views of the sleeping robots within reach of ``center``, in
        index order: the index query is the exact closed ball."""
        sleep_views = self._sleep_views
        build: list[RobotView] = []
        for rid, pos in self.world.sleeping_items(center, self.visibility_radius):
            view = sleep_views.get(rid)
            if view is None:
                view = sleep_views[rid] = RobotView(rid, pos, False)
            build.append(view)
        return build

    def _snapshot(self, proc: _Process, views: tuple[RobotView, ...]) -> Result:
        """Count and trace a Look by ``proc`` that saw ``views``."""
        now = self.now
        center = proc.position
        trace = self.trace
        trace._look_count += 1  # counted even when looks are not kept
        if trace.keep_looks and trace.enabled:
            trace.append(now, "look", proc.pid, {"count": len(views), "at": center})
        return Result(now, Snapshot(now, center, views))

    def _do_wake(self, proc: _Process, action: Wake) -> int | None:
        robot = self.world.robots.get(action.robot_id)
        if robot is None:
            raise WakeError(f"unknown robot {action.robot_id}")
        if robot.awake:
            raise WakeError(f"robot {action.robot_id} is already awake")
        if not close_to(robot.position, proc.position, CO_LOCATION_TOL):
            raise CoLocationError(
                f"process {proc.pid} at {proc.position} cannot wake robot "
                f"{action.robot_id} at {robot.position}"
            )
        waker = proc.robot_ids[0]
        self.world.mark_awake(action.robot_id, self.now, waker)
        robot.position = proc.position
        self._look_cache.clear()
        trace = self.trace
        if trace.enabled:
            trace.append(
                self.now, "wake", proc.pid,
                {
                    "robot": action.robot_id, "waker": waker,
                    "position": robot.position,
                },
            )
        if robot.crashed:
            # Failure injection: the robot is awake (it counts toward the
            # makespan) but crashes before computing — it parks in place,
            # joins no process and runs no program.  Returning None tells
            # wake-plan programs to inherit its pending duties.
            self._make_idle(action.robot_id, robot.position)
            if trace.enabled:
                trace.append(
                    self.now, "crash", proc.pid, {"robot": action.robot_id}
                )
            return None
        self._owned.add(action.robot_id)
        if action.program is None:
            proc.robot_ids.append(action.robot_id)
            proc.site.views = None
            if robot.speed < proc.speed:
                proc.speed = robot.speed
            return None
        return self._start(
            action.program, [action.robot_id], robot.position, robot.speed
        )

    def _do_fork(self, proc: _Process, action: Fork) -> list[int]:
        owned = set(proc.robot_ids)
        assigned: set[int] = set()
        for ids, _prog in action.assignments:
            for rid in ids:
                if rid not in owned:
                    raise ForkError(f"process {proc.pid} does not own robot {rid}")
                if rid in assigned:
                    raise ForkError(f"robot {rid} assigned twice in fork")
                assigned.add(rid)
        if assigned == owned:
            raise ForkError("fork must leave at least one robot with the parent")
        robots = self.world.robots
        trace = self.trace
        children: list[int] = []
        for ids, prog in action.assignments:
            if not ids:
                raise ForkError("empty robot group in fork")
            speed = min(robots[rid].speed for rid in ids)
            children.append(self._start(prog, list(ids), proc.position, speed))
        # The children parked on the parent's site, which staled its views.
        proc.robot_ids = [rid for rid in proc.robot_ids if rid not in assigned]
        proc.speed = min(robots[rid].speed for rid in proc.robot_ids)
        self._look_cache.clear()
        if trace.enabled:
            trace.append(self.now, "fork", proc.pid, {"children": children})
        return children

    def _do_barrier(self, proc: _Process, action: Barrier) -> None:
        state = self._barriers.get(action.key)
        if state is None or state.released:
            state = _BarrierState(action.parties)
            self._barriers[action.key] = state
        if state.parties != action.parties:
            raise BarrierError(
                f"barrier {action.key!r}: party count mismatch "
                f"({state.parties} != {action.parties})"
            )
        if proc.pid in state.arrived:
            raise BarrierError(f"process {proc.pid} hit barrier {action.key!r} twice")
        state.arrived.append(proc.pid)
        state.payloads.append(action.payload)
        if len(state.arrived) < state.parties:
            return None
        # Last party: verify co-location of all parties, then release.
        positions = [self._processes[p].position for p in state.arrived]
        for pos in positions[1:]:
            if not close_to(pos, positions[0], CO_LOCATION_TOL):
                raise BarrierError(
                    f"barrier {action.key!r} released with parties at distinct "
                    f"positions {positions[0]} vs {pos}"
                )
        state.released = True
        payloads = list(state.payloads)
        trace = self.trace
        if trace.enabled:
            trace.append(
                self.now, "barrier", proc.pid,
                {"key": repr(action.key), "parties": state.parties},
            )
        for pid in state.arrived:
            self._schedule(self.now, pid, Result(self.now, payloads))
        return None

    def _do_absorb(self, proc: _Process, action: Absorb) -> int:
        for rid in action.robot_ids:
            robot = self.world.robots.get(rid)
            if robot is None or not robot.awake:
                raise AbsorbError(f"robot {rid} is not an awake robot")
            if robot.crashed:
                raise AbsorbError(f"robot {rid} crashed on wake; it cannot rejoin")
            if rid not in self._idle:
                raise AbsorbError(f"robot {rid} is not idle (still owned)")
            if not close_to(robot.position, proc.position, CO_LOCATION_TOL):
                raise AbsorbError(
                    f"robot {rid} at {robot.position} is not co-located with "
                    f"process {proc.pid} at {proc.position}"
                )
        for rid in action.robot_ids:
            self._unidle(rid)
            self._owned.add(rid)
            proc.robot_ids.append(rid)
            robot = self.world.robots[rid]
            robot.position = proc.position
            if robot.speed < proc.speed:
                proc.speed = robot.speed
        proc.site.views = None
        self._look_cache.clear()
        trace = self.trace
        if trace.enabled:
            trace.append(
                self.now, "absorb", proc.pid, {"robots": list(action.robot_ids)}
            )
        return len(action.robot_ids)

    # -- results -------------------------------------------------------------
    def _result(self) -> SimulationResult:
        awake = self.world.awake_count()
        return SimulationResult(
            makespan=self.world.last_wake_time,
            termination_time=self.now,
            woke_all=self.world.all_awake(),
            awake_count=awake,
            n=self.world.n,
            max_energy=self.world.max_odometer(),
            total_energy=self.world.total_odometer(),
            snapshots=self.trace.look_count,
            trace=self.trace,
            wake_times=self.world.wake_times(),
            events_processed=self.events_processed,
        )


class _Step:
    """Queue value for an engine-internal step — a team sweep's start
    hop, its landing or the landing's hop — taken without resuming the
    generator."""

    __slots__ = ("advance",)

    def __init__(self, advance) -> None:
        self.advance = advance


class _Site:
    """Everything awake and stationary at one exact point: the processes
    standing there and the idle robots parked there.

    Look tests one distance per site and reuses its views until a member
    joins, leaves or changes its robots.  Points equal as dict keys may
    still differ in the sign of a zero, so each view carries its own
    member's position; the distance test cannot tell them apart.
    """

    __slots__ = ("point", "procs", "idle", "views")

    def __init__(self, point: Point) -> None:
        self.point = point
        self.procs: list[_Process] = []
        # Idle robots by id (an idle robot's view never changes); insertion
        # order is parking order, and removing one is O(1).
        self.idle: dict[int, RobotView] = {}
        self.views: tuple[RobotView, ...] | None = None

    def build_views(self) -> tuple[RobotView, ...]:
        views = [
            RobotView(rid, proc.position, True)
            for proc in self.procs
            for rid in proc.robot_ids
        ]
        views += self.idle.values()
        return tuple(views)


class _Convoy:
    """Processes in flight on one identical straight segment, one sweep,
    or one tour from one point at one instant and speed.

    Members interpolate bit-identically (see :func:`_segment_key`), so a
    Look interpolates the first member once for all of them.
    """

    __slots__ = ("key", "members", "bbox")

    def __init__(self, key: Any, first: _Process) -> None:
        self.key = key
        self.members = [first]
        self.bbox: tuple[float, float, float, float] | None = None

    def padded_bbox(self, radius: float) -> tuple[float, float, float, float]:
        """Bounds of the motion expanded by ``radius``, built on first use."""
        bbox = self.bbox
        if bbox is None:
            lead = self.members[0]
            run = lead.motion_path
            if run is not None:
                bbox = _run_bbox(lead.motion_from, run, radius)
            else:
                bbox = _segment_bbox(lead.motion_from, lead.motion_to, radius)
            self.bbox = bbox
        return bbox


class _Flight:
    """A :class:`~repro.sim.actions.TeamSweep` in flight, as one entry of
    the Look index: the padded bounds of every run.

    The robots' stand-ins — generator-less processes sweeping their runs,
    with their segment end times, not in ``_processes`` — are built all
    at once, the first time a Look's centre lands in those bounds; most
    flights never meet a Look and build none.
    """

    __slots__ = ("key", "pid", "sweep", "team", "origin", "start", "meet", "stand_ins", "bbox")

    def __init__(
        self, pid: int, sweep: TeamSweep, team: list, origin: Point, start: float
    ) -> None:
        self.key = self
        self.pid = pid
        self.sweep = sweep
        self.team = team
        self.origin = origin
        self.start = start
        meet = sweep.arrive_at
        if meet is None:
            # Each run ends on its strip's last stop: all must coincide.
            cols = sweep.xs.stops
            ends = [(cols[-1] if len(ys) % 2 else cols[0], ys.stops[-1]) for ys in sweep.rows]
            meet = ends[0]
            if any(end != meet for end in ends):
                raise ProtocolError("team sweep runs must end at one point")
        self.meet = meet if type(meet) is Point else Point(*meet)
        self.stand_ins: list[_Process] | None = None
        self.bbox: tuple[float, float, float, float] | None = None

    def padded_bbox(self, radius: float) -> tuple[float, float, float, float]:
        """Bounds of every run expanded by ``radius``, built on first use."""
        bbox = self.bbox
        if bbox is None:
            cols, rows = self.sweep.xs.stops, self.sweep.rows
            xs = [cols[0], cols[-1], self.origin[0], self.meet[0]]
            ys = [
                min(strip.stops[0] for strip in rows), max(strip.stops[-1] for strip in rows),
                self.origin[1], self.meet[1],
            ]
            pad = radius + 1e-9
            bbox = self.bbox = (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
        return bbox

    def members(self) -> list[_Process]:
        """Every robot's stand-in, on its run and timed as the flight
        charged it; built on first use."""
        stand_ins = self.stand_ins
        if stand_ins is None:
            sweep, origin, start, meet = self.sweep, self.origin, self.start, self.meet
            stand_ins = self.stand_ins = []
            strips = sweep.strip_lengths(origin)
            for i, (robot, lengths) in enumerate(zip(self.team, strips)):
                speed = robot.speed
                member = _Process(self.pid, None, [robot.robot_id], origin, speed)
                ends = _ends(_charged(lengths), start, speed)
                member.start_sweep(origin, start, sweep.run(i), meet, ends)
                stand_ins.append(member)
        return stand_ins


def _tour_key(tour: Tour, origin: Point, start: float, speed: float) -> tuple:
    """Convoy key of ``tour`` flown from ``origin`` at ``start``, ``speed``.

    A tour compares by identity; as in :func:`_segment_key`, a zero
    coordinate of the origin (reported at the start instant) keys on its
    sign.
    """
    if 0.0 in origin:
        signs = math.copysign(1.0, origin[0]), math.copysign(1.0, origin[1])
        return tour, origin, start, speed, signs
    return tour, origin, start, speed


def _segment_key(a: Point, b: Point, start: float, end: float) -> tuple:
    """Convoy key of the segment ``a -> b`` over ``start..end``.

    Equal keys must interpolate to the same bits.  Float ``==`` equates
    ``-0.0`` and ``0.0``, yet a Look at the start instant reports ``a``
    itself (and at the end ``b``), so a zero coordinate also keys on its
    sign.  Times need no such care: the clock starts at ``0.0`` and only
    moves forward.
    """
    if 0.0 in a or 0.0 in b:
        signs = tuple(math.copysign(1.0, c) for c in (a[0], a[1], b[0], b[1]))
        return a, b, start, end, signs
    return a, b, start, end


#: Convoy-count thresholds for switching the Look mover scan between the
#: plain Python loop (zero bookkeeping, fine for a handful of convoys) and
#: the vectorized bbox index (pays ~1us of upkeep per convoy, but answers
#: "which convoys could this observer see" with one numpy mask instead of
#: an O(#convoys) Python loop — the difference between O(n) and O(n^2)
#: total look cost when many cohorts travel simultaneously at scale).
_MOVER_INDEX_ON = 32
_MOVER_INDEX_OFF = 8


class _MoverIndex:
    """Parallel-array bbox index over the convoys in flight.

    Rows are kept dense with swap-removal; a query is four vectorized
    comparisons over the padded bboxes.  Candidate *order* is arbitrary
    (rows shuffle on removal), which is safe: snapshot views are sorted by
    robot id downstream.
    """

    __slots__ = ("keys", "slots", "boxes")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.slots: dict[Any, int] = {}
        self.boxes = _np.empty((64, 4), dtype=_np.float64)

    def put(self, key: Any, bbox: tuple[float, float, float, float]) -> None:
        """Insert ``key`` with its bbox."""
        slot = len(self.keys)
        self.slots[key] = slot
        self.keys.append(key)
        if slot == len(self.boxes):
            grown = _np.empty((2 * len(self.boxes), 4), dtype=_np.float64)
            grown[:slot] = self.boxes
            self.boxes = grown
        self.boxes[slot] = bbox

    def discard(self, key: Any) -> None:
        slot = self.slots.pop(key)
        last = len(self.keys) - 1
        if slot != last:
            last_key = self.keys[last]
            self.keys[slot] = last_key
            self.boxes[slot] = self.boxes[last]
            self.slots[last_key] = slot
        self.keys.pop()

    def candidates(self, x: float, y: float) -> list[Any]:
        """Keys whose padded bbox contains ``(x, y)``."""
        k = len(self.keys)
        b = self.boxes
        mask = (
            (b[:k, 0] <= x) & (x <= b[:k, 2])
            & (b[:k, 1] <= y) & (y <= b[:k, 3])
        )
        keys = self.keys
        return [keys[i] for i in _np.nonzero(mask)[0]]


def _segment_bbox(
    a: Point, b: Point, radius: float
) -> tuple[float, float, float, float]:
    """Axis bounds of segment ``ab`` expanded by the visibility radius."""
    pad = radius + 1e-9
    return (
        min(a[0], b[0]) - pad,
        min(a[1], b[1]) - pad,
        max(a[0], b[0]) + pad,
        max(a[1], b[1]) + pad,
    )


def _check_run(run: Sweep) -> int:
    """A run's waypoint count, once its range is checked against its lattice."""
    start, stop = run.start, run.stop
    if not 0 <= start <= stop <= len(run.xs) * len(run.ys):
        raise ProtocolError(f"sweep range {start}..{stop} off its lattice")
    count = len(run)
    if not count:
        raise ProtocolError("empty sweep")
    return count


def _run_end(run: Sweep, count: int) -> Point:
    """The last of a run's ``count`` waypoints, as a Point."""
    last = run.waypoint(count - 1)
    return last if type(last) is Point else Point(*last)


def _charge(team: Sequence, lengths: list[float]) -> list[float]:
    """Charge a run's segments to ``team`` exactly as a chain of Moves
    does, in the same float-op order; return the lengths as charged, for
    :func:`_ends` to time."""
    if all(robot.budget == math.inf for robot in team):
        # The check can never fire against an infinite budget, so the
        # charge runs at C speed.
        charged = _charged(lengths)
        for robot in team:
            robot.odometer = reduce(add, charged, robot.odometer)
        return charged
    # Budget-bound: the Move chain's check-then-charge.
    _charge_checked(team, lengths)
    return _charged(lengths)


def _charged(lengths: list[float]) -> list[float]:
    """A run's segment lengths as a Move chain charges and times them.

    Lattice hops exceed EPS; only the first and tail hops can be Move's
    zero-length teleports (no odometer charge, no elapsed time), and
    charging those as 0.0 leaves every sum bit-identical (x + 0.0 == x).
    """
    if lengths[0] <= EPS or lengths[-1] <= EPS:
        return [length if length > EPS else 0.0 for length in lengths]
    return lengths


def _ends(charged: list[float], now: float, speed: float) -> list[float]:
    """Per-segment arrival times of charged lengths walked at ``speed``
    from ``now``: each adds ``length / speed`` in turn, as a Move chain's
    arrivals do."""
    if speed != 1.0:
        charged = [length / speed for length in charged]
    ends = list(itertools.accumulate(charged, initial=now))
    del ends[0]
    return ends


def _charge_checked(team: list, lengths: Sequence[float]) -> None:
    """Charge ``lengths`` to ``team`` as a chain of Moves does: each
    segment's budget check precedes its charge, so an overrun raises with
    the odometer of the segments before it charged."""
    for length in lengths:
        for robot in team:
            if robot.odometer + length > robot.budget + 1e-9:
                raise EnergyBudgetExceeded(
                    robot.robot_id, robot.odometer + length, robot.budget
                )
        if length > EPS:
            for robot in team:
                robot.odometer += length


def _run_bbox(
    origin: Point, run: Sweep | Tour, radius: float
) -> tuple[float, float, float, float]:
    """Axis bounds of a whole lattice run or tour expanded by the
    visibility radius.

    A boustrophedon sweep (or a tour) wanders far outside the bbox of its
    endpoints, so its mover bbox must cover every waypoint.  The
    padded superset only admits *candidates* — observers re-check exact
    interpolated distances — so a looser box is safe, never wrong.
    """
    pad = radius + 1e-9
    xmin, ymin, xmax, ymax = run.bounds()
    return (
        min(origin[0], xmin) - pad,
        min(origin[1], ymin) - pad,
        max(origin[0], xmax) + pad,
        max(origin[1], ymax) + pad,
    )


#: Exact-type dispatch table: every shipped action is final, and any other
#: class (a subclass of a shipped action included) is an unknown action.
_HANDLERS: dict[type, Callable[[Engine, _Process, Any], Result | None]] = {
    Move: Engine._handle_move,
    Sweep: Engine._handle_sweep,
    TeamSweep: Engine._handle_teamsweep,
    Tour: Engine._handle_tour,
    Wait: Engine._handle_wait,
    WaitUntil: Engine._handle_waituntil,
    Look: Engine._do_look,
    Wake: Engine._handle_wake,
    Fork: Engine._handle_fork,
    Barrier: Engine._handle_barrier,
    Absorb: Engine._handle_absorb,
    Annotate: Engine._handle_annotate,
}
