"""The lattice-run ``Sweep`` action: one event, Move-chain semantics.

A sweep describes a boustrophedon run by its lattice — two
``LatticeAxis`` columns, an index range and an optional tail point — and
must be observationally identical to issuing one ``Move`` per waypoint:
same per-segment odometer accounting (float-op order included), same
sequential arrival-time accumulation, same interpolated positions for
concurrent observers, same ``EnergyBudgetExceeded`` — while costing a
single queue event and building no per-stop point.
"""

import math
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.geometry import EPS, Point
from repro.sim import (
    SOURCE_ID,
    Engine,
    LatticeAxis,
    Look,
    Move,
    Sweep,
    TeamSweep,
    Wait,
    WaitUntil,
    World,
    WorldConfig,
)
from repro.sim import engine as engine_module
from repro.sim.engine import _check_run
from repro.sim.errors import EnergyBudgetExceeded, ProtocolError


def lattice_points(xs, ys):
    """The boustrophedon lattice as points, built independently of Sweep."""
    points = []
    for j, y in enumerate(ys.stops):
        row = xs.stops if j % 2 == 0 else xs.stops[::-1]
        points += [Point(x, y) for x in row]
    return points


def move_chain(run):
    """The waypoints a chain of Moves walks for ``run``."""
    stops = lattice_points(run.xs, run.ys)[run.start:run.stop]
    return stops + ([run.arrive_at] if run.arrive_at is not None else [])


XS = LatticeAxis([0.5, 1.5, 2.5, 3.5])
YS = LatticeAxis([0.25, 1.25, 2.25])
# Stops 1..10 of the 12-stop lattice, then a tail back towards the
# origin: the run starts mid-row, turns twice and leaves a reversed row.
RUN = Sweep(XS, YS, 1, 11, Point(0.0, 3.0))
STOPS = move_chain(RUN)


def run_walk(use_sweep, budget=math.inf, observer_at=None, observe_times=()):
    """Walk RUN with one process; optionally observe from a second."""
    sleepers = [Point(50.0, 50.0)]
    world = World(source=Point(0, 0), positions=sleepers, config=WorldConfig(budget=budget))
    engine = Engine(world)
    outcome = {}
    observations = []

    def walker(proc):
        if use_sweep:
            yield RUN
        else:
            for s in STOPS:
                yield Move(s)
        outcome["time"] = proc.time
        outcome["position"] = proc.position

    engine.spawn(walker, [SOURCE_ID])
    if observer_at is not None:
        # Enlist the far-away sleeper as an awake observer at a fixed post.
        world.mark_awake(1, 0.0, None)
        world.robots[1].position = observer_at

        def watcher(proc):
            last = 0.0
            for t in observe_times:
                yield Wait(t - last)
                last = t
                snap = (yield Look()).value
                observations.append(
                    [(v.robot_id, v.position) for v in snap.robots if v.robot_id != 1]
                )

        engine.spawn(watcher, [1], position=observer_at)
    result = engine.run()
    return outcome, result, observations


class TestMoveChainEquivalence:
    def test_time_position_energy_identical(self):
        a, ra, _ = run_walk(use_sweep=False)
        b, rb, _ = run_walk(use_sweep=True)
        assert a == b
        assert ra.total_energy == rb.total_energy
        assert ra.max_energy == rb.max_energy
        assert ra.termination_time == rb.termination_time

    def test_single_event(self):
        _, ra, _ = run_walk(use_sweep=False)
        _, rb, _ = run_walk(use_sweep=True)
        assert ra.events_processed == len(STOPS) + 1
        assert rb.events_processed == 2

    def test_observer_sees_identical_interpolation(self):
        times = [0.3, 0.9, 1.7, 2.6, 3.4]
        _, _, seen_moves = run_walk(
            use_sweep=False, observer_at=Point(1.0, 0.0), observe_times=times
        )
        _, _, seen_sweep = run_walk(
            use_sweep=True, observer_at=Point(1.0, 0.0), observe_times=times
        )
        assert seen_moves == seen_sweep
        assert any(seen_moves)  # the walker actually passes through view

    def test_budget_charges_identically(self):
        _, ra, _ = run_walk(use_sweep=False, budget=100.0)
        _, rb, _ = run_walk(use_sweep=True, budget=100.0)
        assert ra.total_energy == rb.total_energy

    def test_budget_overrun_raises(self):
        with pytest.raises(EnergyBudgetExceeded):
            run_walk(use_sweep=True, budget=1.0)


def run_single(run, team=(SOURCE_ID,)):
    """Sweep ``run`` from the origin with ``team``; returns the result."""
    world = World(source=Point(0, 0), positions=[Point(0.0, 0.0)])
    engine = Engine(world)
    for rid in team:
        if rid != SOURCE_ID:
            world.mark_awake(rid, 0.0, None)
    seen = {}

    def program(proc):
        yield run
        seen["time"] = proc.time

    engine.spawn(program, list(team))
    result = engine.run()
    return result, seen


class TestSweepEdges:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ProtocolError):
            run_single(Sweep(XS, YS, 3, 3))

    def test_range_off_the_lattice_rejected(self):
        with pytest.raises(ProtocolError):
            run_single(Sweep(XS, YS, 2, len(XS) * len(YS) + 1))

    def test_zero_length_sweep_completes_instantly(self):
        origin_axis = LatticeAxis([0.0])
        result, seen = run_single(Sweep(origin_axis, origin_axis, 0, 1))
        assert seen["time"] == 0.0
        assert result.total_energy == 0.0

    def test_duplicate_waypoints_charge_once(self):
        """Tiny first and tail hops are teleports, exactly like Move."""
        # The first stop is the origin and the tail repeats the last stop.
        run = Sweep(LatticeAxis([0.0, 1.0, 2.0]), LatticeAxis([0.0]), 0, 3, Point(2.0, 0.0))
        result, _ = run_single(run)
        assert result.total_energy == 2.0
        assert result.termination_time == 2.0

    def test_team_sweep_charges_every_robot(self):
        run = Sweep(LatticeAxis([3.0]), LatticeAxis([4.0]), 0, 1)
        result, _ = run_single(run, team=(SOURCE_ID, 1))
        assert result.total_energy == 10.0
        assert result.max_energy == 5.0

    def test_team_sweep_needs_one_run_per_robot(self):
        with pytest.raises(ProtocolError):
            run_single(TeamSweep(XS, [YS]), team=(SOURCE_ID, 1))

    def test_team_sweep_runs_must_meet(self):
        """Without a tail, each run ends on its strip's last stop."""
        apart = TeamSweep(XS, [LatticeAxis([0.25]), LatticeAxis([1.25])])
        with pytest.raises(ProtocolError):
            run_single(apart, team=(SOURCE_ID, 1))

    def test_team_sweep_is_one_event_per_team(self):
        """Both robots walk their own run; the team resumes once, at the
        later arrival, after two same-instant hops.  The later robot is the
        forked child's, so its landing is queued from one more hop at the
        instant the sweep is issued, where the fork path starts the child."""
        sweep = TeamSweep(XS, [LatticeAxis([0.25]), YS], RUN.arrive_at)
        result, seen = run_single(sweep, team=(SOURCE_ID, 1))
        walked = [sum(sweep.run(i).segment_lengths(Point(0, 0))) for i in range(2)]
        assert result.events_processed == 1 + 1 + 1 + 2
        assert seen["time"] == pytest.approx(max(walked))
        assert result.total_energy == pytest.approx(sum(walked))

    def test_axis_rejects_coincident_stops(self):
        with pytest.raises(ValueError):
            LatticeAxis([0.0, 0.5 * EPS])
        with pytest.raises(ValueError):
            LatticeAxis([1.0, 0.0])
        with pytest.raises(ValueError):
            LatticeAxis([])


# -- property: a lattice run is its Move chain --------------------------------


@st.composite
def axes(draw):
    stops = [draw(st.floats(-20.0, 20.0))]
    # Uneven gaps from the Explore lattice's pitch range (span/ceil(span/
    # sqrt(2))), so a hop indexed from the wrong column is a wrong length.
    # One stop is a single-stop axis (span <= sqrt(2)).
    for gap in draw(st.lists(st.floats(0.71, 1.42), max_size=4)):
        stops.append(stops[-1] + gap)
    return LatticeAxis(stops)


@st.composite
def lattice_runs(draw):
    """A run over a random lattice plus the origin it is walked from."""
    xs, ys = draw(axes()), draw(axes())
    size = len(xs) * len(ys)
    start = draw(st.integers(0, size - 1))
    stop = draw(st.integers(start, size))
    points = lattice_points(xs, ys)
    last = points[stop - 1] if stop > start else None
    tail_kind = draw(st.sampled_from(["none", "far", "repeat", "tiny"]))
    if stop == start and tail_kind == "none":
        tail_kind = "far"
    if last is None and tail_kind in ("repeat", "tiny"):
        tail_kind = "far"
    if tail_kind == "none":
        tail = None
    elif tail_kind == "far":
        tail = Point(draw(st.floats(-25.0, 25.0)), draw(st.floats(-25.0, 25.0)))
    elif tail_kind == "repeat":
        tail = last
    else:
        tail = Point(last[0] + 0.4 * EPS, last[1])
    run = Sweep(xs, ys, start, stop, tail)
    first = move_chain(run)[0]
    origin = draw(
        st.sampled_from([
            first,                                    # first hop 0
            Point(first[0], first[1] - 0.6 * EPS),    # first hop <= EPS
            Point(first[0] - 3.0, first[1] + 2.0),
        ])
    )
    return run, origin


def walk(run, origin, *, use_sweep, speed=1.0, team=1, budget=math.inf,
         probe_at=None, times=()):
    """Walk ``run`` from ``origin``; a probe robot samples it at ``times``.

    Returns a dict: ``end`` (the walker's final time and position),
    ``odometers`` (the team's), ``arrivals`` (the Move chain's arrival
    times; empty for a sweep), ``samples`` (``(now, xy_at, position_at,
    snapshot)`` per probe) and ``result`` — or, when a budget runs out,
    ``error`` (the ``EnergyBudgetExceeded`` arguments).
    """
    far = Point(origin[0] + 1e3, origin[1])
    world = World(source=origin, positions=[origin, probe_at or far])
    engine = Engine(world)
    ids = [SOURCE_ID, 1][:team]
    for rid in ids:
        if rid != SOURCE_ID:
            world.mark_awake(rid, 0.0, None)
        world.robots[rid].speed = speed
        world.robots[rid].budget = budget
    outcome = {"arrivals": [], "samples": []}

    def walker(proc):
        if use_sweep:
            yield run
        else:
            for waypoint in move_chain(run):
                yield Move(waypoint)
                outcome["arrivals"].append(proc.time)
        outcome["end"] = (proc.time, proc.position)

    pid = engine.spawn(walker, ids)
    if times:
        world.mark_awake(2, 0.0, None)

        def probe(proc):
            for t in times:
                yield WaitUntil(t)
                snap = (yield Look()).value
                mover = engine._processes[pid]
                outcome["samples"].append((
                    engine.now,
                    mover.xy_at(engine.now),
                    mover.position_at(engine.now),
                    [(v.robot_id, v.position) for v in snap.robots if v.robot_id != 2],
                ))

        engine.spawn(probe, [2])
    try:
        outcome["result"] = engine.run()
    except EnergyBudgetExceeded as err:
        outcome["error"] = (err.robot_id, err.attempted, err.budget)
    outcome["odometers"] = [world.robots[rid].odometer for rid in ids]
    return outcome


SINGLE_STOP = LatticeAxis([0.3])
GRID3 = LatticeAxis([0.0, 1.2, 2.4])


class TestLatticeRunProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        case=lattice_runs(),
        # Speeds below 1 that are not powers of two: l / v != l * (1 / v).
        speed=st.sampled_from([1.0, 0.7, 0.3]),
        team=st.integers(1, 2),
        bounded=st.booleans(),
        fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6),
        probe_stop=st.integers(0, 100),
        probe_offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @example(  # single-stop axes, with a tail
        case=(Sweep(SINGLE_STOP, SINGLE_STOP, 0, 1, Point(2.0, 1.0)), Point(1.0, 1.0)),
        speed=1.0, team=1, bounded=False, fractions=[0.2, 0.7], probe_stop=0,
        probe_offset=(0.3, -0.2),
    )
    @example(  # a first hop <= EPS, no tail
        case=(Sweep(GRID3, GRID3, 0, 9), Point(0.0, 0.5 * EPS)),
        speed=0.3, team=2, bounded=True, fractions=[0.1, 0.5, 0.9], probe_stop=4,
        probe_offset=(0.0, 0.9),
    )
    @example(  # a range that starts on a reversed row
        case=(Sweep(GRID3, GRID3, 4, 8, Point(-1.0, 0.5)), Point(3.0, 3.0)),
        speed=0.7, team=1, bounded=False, fractions=[0.3, 0.6], probe_stop=5,
        probe_offset=(-0.9, 0.1),
    )
    @example(  # a tail <= EPS after a real first hop
        case=(
            Sweep(GRID3, SINGLE_STOP, 0, 3, Point(2.4 + 0.4 * EPS, 0.3)),
            Point(-1.0, 0.0),
        ),
        speed=1.0, team=1, bounded=False, fractions=[0.5], probe_stop=1,
        probe_offset=(0.0, 0.5),
    )
    def test_matches_move_chain(
        self, case, speed, team, bounded, fractions, probe_stop, probe_offset
    ):
        run, origin = case
        chain = move_chain(run)
        # The run's own geometry, against the independent point chain.
        lengths, prev = [], origin
        for waypoint in chain:
            lengths.append(math.hypot(prev[0] - waypoint[0], prev[1] - waypoint[1]))
            prev = waypoint
        assert run.segment_lengths(origin) == lengths
        assert run.bounds() == (
            min(p[0] for p in chain), min(p[1] for p in chain),
            max(p[0] for p in chain), max(p[1] for p in chain),
        )
        assert len(run) == len(chain)
        budget = 1e6 if bounded else math.inf
        kwargs = dict(speed=speed, team=team, budget=budget)
        reference = walk(run, origin, use_sweep=False, **kwargs)
        total_time = reference["end"][0]
        times = sorted({f * total_time for f in fractions}) if total_time > 0 else []
        # Off the segment boundaries, where equal-time event order decides
        # which side of a teleport an observer sees.
        assume(not set(times) & set(reference["arrivals"]))
        # A probe post near the walk, out to the edge of visibility, so a
        # mover bbox that misses part of the run misses a sighting.
        near = chain[probe_stop % len(chain)]
        probe_at = Point(near[0] + probe_offset[0], near[1] + probe_offset[1])
        moves = walk(run, origin, use_sweep=False, probe_at=probe_at, times=times, **kwargs)
        sweep = walk(run, origin, use_sweep=True, probe_at=probe_at, times=times, **kwargs)
        assert sweep["end"] == moves["end"] == reference["end"]
        assert sweep["odometers"] == moves["odometers"]
        assert sweep["samples"] == moves["samples"]
        for _, xy, position, _ in sweep["samples"]:
            assert Point(*xy) == position
        rs, rm = sweep["result"], moves["result"]
        assert rs.termination_time == rm.termination_time
        assert rs.total_energy == rm.total_energy
        assert rs.max_energy == rm.max_energy

    @settings(max_examples=100, deadline=None)
    @given(
        case=lattice_runs(),
        speed=st.sampled_from([1.0, 0.7]),
        team=st.integers(1, 2),
        hop=st.integers(0, 1000),
        share=st.floats(0.05, 0.95),
    )
    @example(  # the budget runs out on a reversed row
        case=(Sweep(GRID3, GRID3, 1, 9), Point(0.0, 0.0)),
        speed=1.0, team=1, hop=3, share=0.5,
    )
    def test_budget_overrun_matches_move_chain(self, case, speed, team, hop, share):
        run, origin = case
        chain = move_chain(run)
        stops = run.stop - run.start
        assume(stops >= 2)
        # Segment m (1 <= m < stops) is a hop between two lattice stops;
        # the budget runs out part-way along it.
        m = 1 + hop % (stops - 1)
        odometer, prev = 0.0, origin
        for waypoint in chain[:m]:
            length = math.hypot(prev[0] - waypoint[0], prev[1] - waypoint[1])
            if length > EPS:
                odometer += length
            prev = waypoint
        hop_length = math.hypot(prev[0] - chain[m][0], prev[1] - chain[m][1])
        budget = odometer + share * hop_length
        kwargs = dict(speed=speed, team=team, budget=budget)
        moves = walk(run, origin, use_sweep=False, **kwargs)
        sweep = walk(run, origin, use_sweep=True, **kwargs)
        assert moves["error"] == (SOURCE_ID, odometer + hop_length, budget)
        assert sweep["error"] == moves["error"]
        # The segments before the overrun are charged, on both paths.
        assert sweep["odometers"] == moves["odometers"] == [odometer] * team


# -- property: a one-waypoint sweep is its lattice run ------------------------


def _lattice_path(engine, proc, action):
    """The engine's general lattice-run handler, whatever the run's size."""
    return engine._sweep_lattice(proc, action, _check_run(action))


@st.composite
def one_waypoint_runs(draw):
    """A one-waypoint run — a lone lattice stop, or the tail alone — and
    the origin it is walked from."""
    xs, ys = draw(axes()), draw(axes())
    size = len(xs) * len(ys)
    if draw(st.booleans()):
        k = draw(st.integers(0, size - 1))
        run = Sweep(xs, ys, k, k + 1)
    else:
        k = draw(st.integers(0, size))
        run = Sweep(xs, ys, k, k, Point(draw(st.floats(-25.0, 25.0)), draw(st.floats(-25.0, 25.0))))
    (target,) = move_chain(run)
    origin = draw(
        st.sampled_from([
            target,                                     # zero-length
            Point(target[0], target[1] - 0.6 * EPS),    # <= EPS: a teleport
            Point(target[0] - 3.0, target[1] + 2.0),
            Point(-target[0], 0.0),
        ])
    )
    return run, origin


class TestOneWaypointSweep:
    """A one-waypoint ``Sweep`` takes Move's arithmetic, pinned to the
    lattice path it replaces: the same end, odometers (bits), sightings,
    budget overrun and ``sweep`` trace entry."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=one_waypoint_runs(),
        speed=st.sampled_from([1.0, 0.7, 0.3]),
        team=st.integers(1, 2),
        budget=st.sampled_from(["unbounded", "ample", "short"]),
        fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
        probe_offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    def test_matches_the_lattice_path(self, case, speed, team, budget, fractions, probe_offset):
        run, origin = case
        (target,) = move_chain(run)
        length = math.hypot(origin[0] - target[0], origin[1] - target[1])
        limit = {"unbounded": math.inf, "ample": 1e6, "short": 0.5 * length}[budget]
        # Sightings strictly inside the walk, while the walker is live.
        times = sorted({f * length / speed for f in fractions}) if length > EPS else []
        probe_at = Point(target[0] + probe_offset[0], target[1] + probe_offset[1])
        kwargs = dict(speed=speed, team=team, budget=limit, probe_at=probe_at, times=times)
        hop = walk(run, origin, use_sweep=True, **kwargs)
        with patch.dict(engine_module._HANDLERS, {Sweep: _lattice_path}):
            lattice = walk(run, origin, use_sweep=True, **kwargs)
        assert hop.get("error") == lattice.get("error")
        assert [o.hex() for o in hop["odometers"]] == [o.hex() for o in lattice["odometers"]]
        assert hop.get("end") == lattice.get("end")
        assert hop["samples"] == lattice["samples"]
        if "result" in hop:
            a, b = hop["result"], lattice["result"]
            assert a.termination_time == b.termination_time
            assert a.events_processed == b.events_processed
            assert [
                (e.time, e.kind, e.data) for e in a.trace.events if e.kind == "sweep"
            ] == [(e.time, e.kind, e.data) for e in b.trace.events if e.kind == "sweep"]


# -- property: a team sweep's robots are their lone sweeps --------------------


@st.composite
def strip_families(draw):
    """A TeamSweep of 1..5 strips in any order and the origin it is
    issued from."""
    xs = draw(axes())
    rows, y = [], draw(st.floats(-20.0, 20.0))
    for _ in range(draw(st.integers(1, 5))):
        if rows and draw(st.booleans()):
            rows.append(rows[-1])  # the same strip again
            continue
        stops = [y]
        for gap in draw(st.lists(st.floats(0.71, 1.42), max_size=2)):
            stops.append(stops[-1] + gap)
        rows.append(LatticeAxis(stops))
        y = stops[-1] + draw(st.floats(0.1, 1.42))
    rows = draw(st.permutations(rows))
    end = TeamSweep(xs, rows[:1]).run(0).waypoint(len(xs) * len(rows[0]) - 1)
    tail_kind = draw(st.sampled_from(["none", "far", "repeat", "tiny"]))
    if tail_kind == "none":
        rows = [rows[0]] * len(rows)  # no tail: every strip must end alike
        tail = None
    elif tail_kind == "far":
        tail = Point(draw(st.floats(-25.0, 25.0)), draw(st.floats(-25.0, 25.0)))
    elif tail_kind == "repeat":
        tail = Point(*end)
    else:
        tail = Point(end[0] + 0.4 * EPS, end[1])
    sweep = TeamSweep(xs, rows, tail)
    first = sweep.run(0).waypoint(0)
    origin = draw(
        st.sampled_from([
            Point(*first),                               # first hop 0
            Point(first[0], first[1] - 0.6 * EPS),       # first hop <= EPS
            Point(first[0] - 3.0, first[1] + 2.0),
        ])
    )
    return sweep, origin


def fly(sweep, origin, speeds, budgets, *, team):
    """Issue ``sweep`` at t=0 — as one team, or as one lone ``Sweep`` of
    each robot's run — and stop there; returns the engine, world and
    each robot's mover (a flight's stand-in or the lone process)."""
    k = len(speeds)
    world = World(source=origin, positions=[origin] * (k - 1))
    for rid, speed, budget in zip(range(k), speeds, budgets):
        if rid:
            world.mark_awake(rid, 0.0, None)
        world.robots[rid].speed = speed
        world.robots[rid].budget = budget
    engine = Engine(world)
    out = {}

    def program(proc):
        yield sweep
        out["resumed"] = proc.time

    def lone(i):
        def program(proc):
            yield sweep.run(i)

        return program

    if team:
        procs = [engine._processes[engine.spawn(program, list(range(k)))]]
    else:
        procs = [engine._processes[engine.spawn(lone(i), [i])] for i in range(k)]
    try:
        engine.run(until=0.0)
    except EnergyBudgetExceeded as err:
        return engine, world, (err.robot_id, err.attempted, err.budget), out
    if team:
        movers = procs[0].flight.members()
    else:
        movers = procs  # a lone walk of no length is over, at its end
    return engine, world, movers, out


class TestTeamSweepFlight:
    """A flight charges each robot in one pass and builds its stand-ins
    only when looked for: odometers, arrivals and positions must be the
    lone sweeps' own."""

    def test_box_covers_a_strip_in_any_order(self):
        """The highest strip is the middle one of the family: a Look beside
        it finds its robot there."""
        sweep = TeamSweep(
            LatticeAxis([0.0]),
            [LatticeAxis([1.0]), LatticeAxis([5.0]), LatticeAxis([2.0])],
            Point(0.0, 0.0),
        )
        origin = Point(0.0, 0.0)
        world = World(source=origin, positions=[origin, origin, Point(0.0, 5.9)])
        for rid in (1, 2, 3):
            world.mark_awake(rid, 0.0, None)
        engine = Engine(world)
        seen = []

        def team(proc):
            yield sweep

        def post(proc):
            yield WaitUntil(5.0)
            seen.append((yield Look()).value)

        engine.spawn(team, [0, 1, 2])
        engine.spawn(post, [3])
        engine.run()
        (snapshot,) = seen
        assert [(v.robot_id, v.position) for v in snapshot.robots if v.robot_id != 3] == [
            (1, Point(0.0, 5.0))
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        case=strip_families(),
        speeds=st.lists(st.sampled_from([1.0, 0.7, 0.3]), min_size=5, max_size=5),
        budget=st.sampled_from(["unbounded", "ample", "short"]),
        fractions=st.lists(st.floats(0.0, 1.1), min_size=1, max_size=6),
    )
    def test_members_match_lone_sweeps(self, case, speeds, budget, fractions):
        sweep, origin = case
        k = len(sweep)
        speeds = speeds[:k]
        walks = [sum(sweep.run(i).segment_lengths(origin)) for i in range(k)]
        # A walk of only teleports ends the flight at its issue instant.
        assume(max(walks) > 2 * EPS)
        budgets = [{"unbounded": math.inf, "ample": 1e6, "short": 0.5 * w}[budget] for w in walks]
        # One list per distinct strip axis, shared by the robots on it.
        strips = sweep.strip_lengths(origin)
        assert strips == [sweep.run(i).segment_lengths(origin) for i in range(k)]
        assert all(
            (strips[i] is strips[j]) == (sweep.rows[i] is sweep.rows[j])
            for i in range(k) for j in range(k)
        )
        team_engine, team_world, team, out = fly(sweep, origin, speeds, budgets, team=True)
        lone_engine, lone_world, lone, _ = fly(sweep, origin, speeds, budgets, team=False)
        odometers = [
            [w.robots[rid].odometer.hex() for rid in range(k)] for w in (team_world, lone_world)
        ]
        assert odometers[0] == odometers[1]
        if isinstance(lone, tuple):
            assert team == lone  # the same overrun, raised at the issue instant
            return
        arrivals = [m.motion_end for m in lone]
        assert [m.motion_end for m in team] == arrivals
        for t in sorted({f * max(arrivals) for f in fractions}):
            assert [m.xy_at(t) for m in team] == [m.xy_at(t) for m in lone]
        team_engine.run()
        lone_engine.run()
        assert out["resumed"] == max(arrivals) == lone_engine.now
        assert [team_world.robots[rid].position for rid in range(k)] == [
            lone_world.robots[rid].position for rid in range(k)
        ]
