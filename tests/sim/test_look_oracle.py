"""Every Look against a brute-force oracle.

A snapshot must list exactly the robots within ``radius + EPS`` of the
observer: each live process's robots at its ``position_at(now)``, each
idle robot at its parked position, each sleeper at its home.  A team in a
``TeamSweep`` is placed robot by robot from the strip runs its script
issued, walked as a chain of Moves (posts Look at random instants inside
such flights), and a process on a ``Tour`` from its legs,
walked as a chain of Moves and WaitUntils.  The oracle compares ids,
awake flags and coordinate bits (``float.hex``, so ``-0.0`` and ``0.0``
differ).  The programs are random scripts over every action the engine
knows, run by many processes at once, so whatever grouping the engine
keeps for Look (points shared by stationary teams and idle robots,
segments shared by movers, a team sweep's stand-ins, tours flown as one
convoy, the vectorized mover index) is checked against the world state it
stands for.  A sleepers-only Look must list exactly the oracle's sleepers
and count as one Look, and the ``(time, center)`` memo must never serve
one kind of Look to the other.
"""

import itertools
import math
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import EPS, Point, close_to
from repro.sim import (
    CO_LOCATION_TOL,
    SOURCE_ID,
    Absorb,
    Barrier,
    Engine,
    Fork,
    LatticeAxis,
    Look,
    Move,
    Sweep,
    TeamSweep,
    Tour,
    Wait,
    WaitUntil,
    Wake,
    World,
    WorldConfig,
)
from repro.sim.engine import _MOVER_INDEX_ON

#: Targets and team homes.  Integer coordinates make many moves end at
#: integer times, so Looks land on the exact start and end instants of
#: other processes' motions; signed zeros exercise the ``-0.0`` rule.
PALETTE = (
    Point(0.0, 0.0),
    Point(-0.0, 1.0),
    Point(0.0, 1.0),
    Point(2.0, 1.0),
    Point(2.0, -0.0),
    Point(1.0, 1.0),
    Point(-1.0, 0.5),
    Point(0.5, -1.5),
    Point(3.0, 4.0),
    Point(-0.0, -0.0),
)
#: Sleeper homes (robots to wake).
SLEEPER_SPOTS = (
    Point(0.5, 0.5),
    Point(-0.0, 2.0),
    Point(1.5, -0.0),
    Point(2.0, 1.0),
    Point(-1.0, -1.0),
    Point(0.0, 0.0),
    Point(2.5, 2.5),
)
XS = LatticeAxis([0.0, 0.75, 1.5])
YS = LatticeAxis([-0.5, 0.5, 1.5])
LATTICE = len(XS) * len(YS)
#: Team-sweep columns: three, or one on the palette's ``x = 0`` points.
TEAM_COLS = (XS, LatticeAxis([0.0]))
#: Strip rows.  Rows at 0 and 1 put strip ends on palette points:
#: zero-length first hops and tails.
STRIPS = (
    LatticeAxis([-0.5]),
    LatticeAxis([0.0]),
    LatticeAxis([0.0, 1.0]),
    LatticeAxis([1.0]),
    LatticeAxis([1.0, 2.0]),
    LatticeAxis([2.0]),
)

spot = st.integers(0, len(PALETTE) - 1)
leaf_ops = st.one_of(
    st.tuples(st.just("move"), spot),
    st.tuples(st.just("stay"), st.sampled_from([0.0, 0.5 * EPS])),
    # A real move shorter than the co-location tolerance: Absorb may then
    # take robots from a point next to its own.
    st.tuples(st.just("nudge")),
    st.tuples(
        st.just("sweep"),
        st.integers(0, LATTICE - 1),
        st.integers(1, LATTICE),
        st.one_of(st.none(), spot),
    ),
    # Every robot of the team sweeps one strip of a family (strips repeat
    # when the team outnumbers them), and all meet at the tail; with no
    # tail, every robot walks the first strip to its end.
    st.tuples(
        st.just("team"),
        st.integers(0, len(TEAM_COLS) - 1),
        st.lists(st.integers(0, len(STRIPS) - 1), min_size=1, max_size=3),
        st.one_of(st.none(), spot),
    ),
    # A tour's legs: a corner and the whole time to wait there until.
    st.tuples(
        st.just("tour"),
        st.lists(st.tuples(spot, st.integers(0, 8).map(float)), min_size=1, max_size=4),
    ),
    st.tuples(st.just("until"), st.integers(0, 8).map(float)),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.5, 1.0])),
    st.tuples(st.just("absorb")),
    # A sleepers-only Look, checked against the oracle's sleepers.
    st.tuples(st.just("peek")),
)
leaf_scripts = st.lists(leaf_ops, min_size=1, max_size=4)
team_ops = st.one_of(
    leaf_ops,
    st.tuples(
        st.just("wake"),
        st.integers(0, len(SLEEPER_SPOTS) - 1),
        st.one_of(st.none(), leaf_scripts),
    ),
    st.tuples(st.just("cohort"), spot),
    # The whole team splits and every member issues one tour object.
    st.tuples(
        st.just("convoy"),
        st.lists(st.tuples(spot, st.integers(0, 8).map(float)), min_size=1, max_size=3),
    ),
    st.tuples(st.just("fork"), leaf_scripts),
)
teams = st.tuples(
    spot, st.integers(1, 3), st.lists(team_ops, min_size=1, max_size=6)
)


def observed(snapshot):
    return [
        (v.robot_id, v.awake, v.position[0].hex(), v.position[1].hex())
        for v in snapshot.robots
    ]


def chain_at(origin, waypoints, speed, start, now):
    """Where a chain of Moves from ``origin`` through ``waypoints``, issued
    at ``start``, stands at ``now``.

    Times add up Move by Move; a hop of at most ``EPS`` is a teleport that
    takes no time.  As a ``Sweep`` reports it, the walker is at its origin
    up to the issue instant, at its last waypoint from its arrival on, and
    at a waypoint at the instant it reaches it.
    """
    legs, t, prev = [], start, origin
    for waypoint in waypoints:
        length = math.hypot(prev[0] - waypoint[0], prev[1] - waypoint[1])
        if length > EPS:
            end = t + length / speed
            legs.append((t, end, prev, waypoint))
            t = end
        prev = waypoint
    if now >= t:
        return waypoints[-1]
    if now <= start:
        return origin
    for begin, end, a, b in legs:
        if now == end:
            return b
        if now < end:
            f = (now - begin) / (end - begin)
            return Point(a[0] + (b[0] - a[0]) * f, a[1] + (b[1] - a[1]) * f)
    raise AssertionError("unreachable: now precedes the arrival")


def tour_at(origin, legs, speed, start, now):
    """Where a walker of ``legs`` (``(corner, until)`` pairs) from
    ``origin``, issued at ``start``, stands at ``now``.

    Each leg is a Move (a hop of at most ``EPS`` is a teleport that takes
    no time) and then a WaitUntil.  As a ``Tour`` reports it, the walker
    is at its last corner from its last departure on, at its origin up to
    the issue instant, and otherwise at a corner from its arrival there
    through its departure, so a teleport shows only after the instant it
    happens.
    """
    t, prev, path = start, origin, []
    for corner, until in legs:
        length = math.hypot(prev[0] - corner[0], prev[1] - corner[1])
        arrival = t + length / speed if length > EPS else t
        departure = max(arrival, until)
        path.append((t, arrival, departure, prev, corner))
        t, prev = departure, corner
    if now >= t:
        return prev
    if now <= start:
        return origin
    for leave, arrival, departure, a, b in path:
        if now < arrival:
            f = (now - leave) / (arrival - leave)
            return Point(a[0] + (b[0] - a[0]) * f, a[1] + (b[1] - a[1]) * f)
        if now <= departure:
            return b
    return prev


def oracle(engine, world, center, flights):
    """The snapshot at ``center``, from the world's ground truth alone.

    ``flights`` maps the pid of each process in a ``TeamSweep`` or a
    ``Tour`` to its robots, each with a function of the time that walks
    the run or tour its script issued, as a chain.
    """
    limit = world.visibility_radius + EPS
    now = engine.now
    seen = []
    owned = set()

    def visible(pos, rid, awake):
        if math.hypot(pos[0] - center[0], pos[1] - center[1]) <= limit:
            seen.append((rid, awake, pos[0].hex(), pos[1].hex()))

    for proc in engine._processes.values():
        owned.update(proc.robot_ids)
        flight = flights.get(proc.pid)
        if flight is not None:
            for rid, walker in flight:
                visible(walker(now), rid, True)
            continue
        pos = proc.position_at(now)
        for rid in proc.robot_ids:
            visible(pos, rid, True)
    for rid, robot in world.robots.items():
        if rid not in owned:
            visible(robot.position, rid, robot.awake)
    return sorted(seen)


class Run:
    """One random multi-process run whose every Look is oracle-checked."""

    def __init__(self, sleepers, team_specs, crowd, config, slow=(), watchers=()):
        homes = [PALETTE[at] for at, size, _ in team_specs for _ in range(size)]
        crowd_homes = [Point(-2.0 + 0.125 * j, 0.25) for j in range(crowd)]
        posts = [PALETTE[at] for at, _ in watchers]
        self.world = World(
            source=Point(0.0, 0.0),
            positions=homes + crowd_homes + posts + [SLEEPER_SPOTS[s] for s in sleepers],
            config=config,
        )
        self.engine = Engine(self.world)
        self.sleeper_ids = {
            s: len(homes) + crowd + len(posts) + 1 + i for i, s in enumerate(sleepers)
        }
        self.keys = itertools.count()
        self.looks = 0
        self.peeks = 0
        self.snapshots = []
        self.flights = {}
        self.engine.spawn(self.script([("until", 1.0), ("move", 3)]), [SOURCE_ID])
        rid = 1
        for _at, size, ops in team_specs:
            ids = list(range(rid, rid + size))
            rid += size
            for r in ids:
                self.world.mark_awake(r, 0.0, None)
                if r in slow:
                    self.world.robots[r].speed = 0.5
            self.engine.spawn(self.script(ops), ids)
        for j in range(crowd):
            # Distinct segments, all moving at once: more concurrent movers
            # than the mover index's switch-on threshold.
            self.world.mark_awake(rid, 0.0, None)
            walk = [("move", j % len(PALETTE)), ("until", 3.0),
                    ("move", (j + 3) % len(PALETTE))]
            self.engine.spawn(self.script(walk), [rid])
            rid += 1
        for _at, times in watchers:
            # A post that Looks at each of ``times``, wherever they fall.
            self.world.mark_awake(rid, 0.0, None)
            self.engine.spawn(self.script([("until", t) for t in sorted(times)]), [rid])
            rid += 1

    def check(self):
        result = self.engine.run()
        assert not self.engine._processes
        return result

    # -- programs ------------------------------------------------------------
    def script(self, ops):
        def program(proc):
            yield from self.look(proc)
            for op in ops:
                yield from self.step(proc, op)
                yield from self.look(proc)

        return program

    def look(self, proc):
        snapshot = (yield Look()).value
        self.snapshots.append(snapshot)
        assert snapshot.observer == proc.position
        assert observed(snapshot) == oracle(
            self.engine, self.world, snapshot.observer, self.flights
        )
        self.looks += 1

    def peek(self, proc):
        """A sleepers-only Look: the oracle's sleepers, counted as a Look."""
        trace = self.engine.trace
        looks = trace.look_count
        snapshot = (yield Look(sleepers_only=True)).value
        assert trace.look_count == looks + 1
        assert snapshot.observer == proc.position
        truth = oracle(self.engine, self.world, snapshot.observer, self.flights)
        assert observed(snapshot) == [seen for seen in truth if not seen[1]]
        self.peeks += 1

    def idle_here(self, proc):
        owned = {r for p in self.engine._processes.values() for r in p.robot_ids}
        return [
            rid
            for rid, robot in self.world.robots.items()
            if robot.awake and not robot.crashed and rid not in owned
            and close_to(robot.position, proc.position, CO_LOCATION_TOL)
        ]

    def step(self, proc, op):
        kind = op[0]
        if kind == "move":
            yield Move(PALETTE[op[1]])
        elif kind == "stay":
            # Zero-length: ``x + 0.0`` turns a ``-0.0`` into ``0.0``.
            here = proc.position
            yield Move(Point(here[0] + op[1], here[1]))
        elif kind == "nudge":
            here = proc.position
            yield Move(Point(here[0], here[1] + 0.25 * CO_LOCATION_TOL))
        elif kind == "sweep":
            start, stop, tail = op[1], max(op[1], op[2]), op[3]
            if start < stop or tail is not None:
                yield Sweep(XS, YS, start, stop, None if tail is None else PALETTE[tail])
        elif kind == "team":
            yield from self.team(proc, op[1], op[2], op[3])
        elif kind == "until":
            yield WaitUntil(op[1])
        elif kind == "wait":
            yield Wait(op[1])
        elif kind == "absorb":
            idle = self.idle_here(proc)
            if idle:
                yield Absorb(idle)
        elif kind == "peek":
            yield from self.peek(proc)
        elif kind == "wake":
            rid = self.sleeper_ids.get(op[1])
            if rid is not None and not self.world.robots[rid].awake:
                yield Move(self.world.robots[rid].position)
                yield from self.look(proc)
                if not self.world.robots[rid].awake:
                    child = None if op[2] is None else self.script(op[2])
                    yield Wake(rid, child)
        elif kind == "fork":
            ids = proc.robot_ids
            if len(ids) > 1:
                yield Fork([((ids[-1],), self.script(op[1]))])
        elif kind == "cohort":
            yield from self.cohort(proc, PALETTE[op[1]])
        elif kind == "tour":
            yield from self.tour(proc, self.make_tour(op[1]))
        elif kind == "convoy":
            yield from self.convoy(proc, self.make_tour(op[1]))

    @staticmethod
    def make_tour(legs):
        return Tour([(Move(PALETTE[at]), WaitUntil(until)) for at, until in legs])

    def tour(self, proc, tour):
        """Issue ``tour``; the oracle walks its legs as a chain."""
        legs = [(move.target, wait.time) for move, wait in tour.legs]
        walker = partial(tour_at, proc.position, legs, proc.speed, proc.time)
        self.flights[proc.pid] = [(rid, walker) for rid in proc.robot_ids]
        yield tour
        del self.flights[proc.pid]
        assert proc.position == legs[-1][0]

    def convoy(self, proc, tour):
        """Split the team; every member issues the same tour object at
        the same instant, meets at its last corner, and the leader absorbs
        the rest."""
        ids = proc.robot_ids
        if len(ids) < 2:
            return
        key = ("convoy", next(self.keys))
        parties = len(ids)

        def member(child):
            yield from self.tour(child, tour)
            yield from self.look(child)
            yield Barrier(key, parties)

        yield Fork([((rid,), member) for rid in ids[1:]])
        yield from self.tour(proc, tour)
        yield from self.look(proc)
        yield Barrier(key, parties)
        yield Wait(1.0)
        idle = self.idle_here(proc)
        if idle:
            yield Absorb(idle)

    def team(self, proc, cols, strips, tail):
        """One TeamSweep over columns ``TEAM_COLS[cols]``: robot ``i``
        sweeps strip ``STRIPS[strips[i % len(strips)]]`` and walks to
        ``PALETTE[tail]``; with no tail, every robot sweeps the first strip
        and ends where it does."""
        k = len(proc.robot_ids)
        if tail is None:
            rows = [STRIPS[strips[0]]] * k
        else:
            rows = [STRIPS[strips[i % len(strips)]] for i in range(k)]
        sweep = TeamSweep(TEAM_COLS[cols], rows, None if tail is None else PALETTE[tail])
        members = []
        for i, rid in enumerate(proc.robot_ids):
            run = sweep.run(i)
            waypoints = [Point(*run.waypoint(j)) for j in range(len(run))]
            walker = partial(
                chain_at, proc.position, waypoints, self.world.robots[rid].speed, proc.time
            )
            members.append((rid, walker))
        self.flights[proc.pid] = members
        yield sweep
        del self.flights[proc.pid]
        assert proc.position == waypoints[-1]

    def cohort(self, proc, target):
        """Split the team; every member makes the same Move at the same
        instant, meets at a barrier, and the leader absorbs the rest."""
        ids = proc.robot_ids
        if len(ids) < 2:
            return
        key = ("cohort", next(self.keys))
        parties = len(ids)

        def member(child):
            yield Move(target)
            yield from self.look(child)
            yield Barrier(key, parties)
            yield from self.look(child)

        yield Fork([((rid,), member) for rid in ids[1:]])
        yield Move(target)
        yield from self.look(proc)
        yield Barrier(key, parties)
        yield Wait(1.0)
        idle = self.idle_here(proc)
        if idle:
            yield Absorb(idle)


SIGNED_ZERO_TEAMS = [
    # Two teams one sign of zero apart make the same Move at t=1; the
    # third Looks at that start instant and at the arrival instant t=3.
    (2, 1, [("until", 1.0), ("move", 3)]),
    (1, 1, [("until", 1.0), ("move", 3)]),
    (5, 1, [("until", 1.0), ("until", 3.0)]),
]


TEAM_SWEEP_WATCH = [
    # Robots 1 and 2 leave (0, 0) at t=1, each through (0, -0.5) to meet
    # at (2, 1): robot 1 arrives at t=4, slow robot 2 at t=7, the release.
    (0, 2, [("until", 1.0), ("team", 1, [0], 3)]),
    # Looks at the issue instant (from the team's origin), then from the
    # meeting point at robot 1's arrival, between the two arrivals, and
    # three times at the release instant, after the landing event.
    (0, 1, [("until", 1.0), ("move", 3), ("until", 4.0), ("until", 6.0),
            ("until", 7.0), ("wait", 0.0), ("wait", 0.0)]),
    # Three Looks at the release instant, the first before the landing.
    (3, 1, [("until", 7.0), ("wait", 0.0), ("wait", 0.0)]),
]


TOUR_WATCH = [
    # Robots 1-3 split at t=1 and each issue one tour: to (2, 1), due at
    # t=2 but reached later, then to (1, 1) until t=6; slow robot 2 is
    # late on both legs.
    (0, 3, [("until", 1.0), ("convoy", [(3, 2.0), (5, 6.0)])]),
    # Robot 4 teleports between (0, 1) and its -0.0 twin, waiting on each.
    (2, 1, [("tour", [(1, 4.0), (2, 5.0), (1, 8.0)])]),
    # Looks at the split, on the first arrival, mid-wait, at the second
    # arrival and departure, and while the -0.0 twin waits.
    (5, 1, [("until", 1.0), ("until", 3.0), ("until", 4.5), ("until", 5.0),
            ("until", 6.0), ("wait", 0.0), ("until", 7.0), ("until", 7.5)]),
]


#: A team that waits for t=1 and issues one team sweep.
flight_teams = st.tuples(
    spot,
    st.integers(2, 4),
    st.tuples(
        st.just("team"),
        st.integers(0, len(TEAM_COLS) - 1),
        st.lists(st.integers(0, len(STRIPS) - 1), min_size=1, max_size=3),
        st.one_of(st.none(), spot),
    ).map(lambda op: [("until", 1.0), op]),
)
#: Posts that Look at random instants, most of them inside the flights.
posts = st.lists(
    st.tuples(spot, st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5)),
    min_size=1,
    max_size=4,
)


class TestLookOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        sleepers=st.lists(st.integers(0, len(SLEEPER_SPOTS) - 1), max_size=6),
        team_specs=st.lists(teams, min_size=1, max_size=5),
        crowd=st.sampled_from([0, 0, _MOVER_INDEX_ON + 4]),
        crash=st.sampled_from([0.0, 0.0, 0.5, 1.0]),
        slow=st.sets(st.integers(1, 8), max_size=3),
    )
    @example(sleepers=[], team_specs=SIGNED_ZERO_TEAMS, crowd=0, crash=0.0, slow=set())
    @example(  # a sleeper joins the team that woke it, after a Look there
        sleepers=[0, 3],
        team_specs=[(0, 1, [("wake", 0, None), ("wake", 3, [("until", 2.0)])])],
        crowd=0,
        crash=0.0,
        slow=set(),
    )
    @example(  # Looks at a team sweep's issue instant, arrivals and release
        sleepers=[],
        team_specs=TEAM_SWEEP_WATCH,
        crowd=0,
        crash=0.0,
        slow={2},
    )
    @example(
        sleepers=[0, 1, 2],
        team_specs=[
            (9, 3, [("cohort", 2), ("wake", 1, None), ("stay", 0.0), ("absorb",)]),
            (2, 2, [("fork", [("until", 2.0)]), ("until", 4.0), ("nudge",), ("absorb",)]),
            (1, 2, [("fork", [("sweep", 2, 7, 4)]), ("move", 0), ("move", 4)]),
            (4, 1, [("wake", 0, [("until", 3.0)]), ("wake", 2, None)]),
        ],
        crowd=_MOVER_INDEX_ON + 4,
        crash=0.5,
        slow=set(),
    )
    @example(  # a convoy of one tour object, late legs, -0.0 teleports
        sleepers=[],
        team_specs=TOUR_WATCH,
        crowd=0,
        crash=0.0,
        slow={2},
    )
    @example(  # sleepers-only Looks among crashed robots, a crowd and a flight
        sleepers=[0, 1, 3, 5],
        team_specs=[
            (0, 2, [("peek",), ("wake", 5, [("peek",)]), ("team", 0, [0, 2], 3), ("peek",)]),
            (5, 1, [("peek",), ("wake", 0, None), ("move", 3), ("peek",), ("wake", 3, None)]),
        ],
        crowd=_MOVER_INDEX_ON + 4,
        crash=0.5,
        slow=set(),
    )
    def test_every_look_matches_the_oracle(self, sleepers, team_specs, crowd, crash, slow):
        config = WorldConfig(crash_on_wake=crash, failure_seed=3)
        run = Run(sorted(set(sleepers)), team_specs, crowd, config, slow)
        run.check()
        assert run.looks > 0

    def test_signed_zero_teams_keep_their_own_bits(self):
        """A Look at the start instant of two Moves that differ only in
        the sign of a zero reports each team at its own ``-0.0``/``0.0``."""
        run = Run([], SIGNED_ZERO_TEAMS, 0, WorldConfig())
        starts = run.world.robots[2].position, run.world.robots[1].position
        assert [p[0].hex() for p in starts] == ["-0x0.0p+0", "0x0.0p+0"]
        run.check()

    def test_crowd_engages_the_mover_index(self):
        run = Run([], [(0, 1, [("until", 1.0)])], _MOVER_INDEX_ON + 4, WorldConfig())
        run.engine.run(until=0.5)
        assert run.engine._movers is not None
        run.check()

    @pytest.mark.parametrize(
        "kinds",
        [(False, True), (True, False), (False, True, False), (True, True, False)],
        ids=["full-first", "sleepers-first", "full-sleepers-full", "sleepers-sleepers-full"],
    )
    def test_memo_keeps_full_and_sleepers_only_looks_apart(self, kinds):
        """Processes on one site Look at one instant, full or sleepers-only
        (``True``) in turn: each gets its own views, whichever Look came
        first, though a full Look there is memoized for the next."""
        here = Point(2.0, 1.0)
        homes = [Point(2.5, 1.0), Point(2.0, 1.5), Point(5.0, 5.0)]
        world = World(source=Point(0.0, 0.0), positions=[here] * len(kinds) + homes)
        engine = Engine(world)
        seen = {}

        def program(rid, sleepers_only):
            def looker(proc):
                yield WaitUntil(1.0)
                seen[rid] = observed((yield Look(sleepers_only=sleepers_only)).value)

            return looker

        for rid, sleepers_only in enumerate(kinds, 1):
            world.mark_awake(rid, 0.0, None)
            engine.spawn(program(rid, sleepers_only), [rid])
        engine.run()
        x, y = here[0].hex(), here[1].hex()
        awake = [(rid, True, x, y) for rid in range(1, len(kinds) + 1)]
        sleepers = [
            (len(kinds) + i, False, home[0].hex(), home[1].hex())
            for i, home in enumerate(homes[:2], 1)
        ]
        for rid, sleepers_only in enumerate(kinds, 1):
            assert seen[rid] == (sleepers if sleepers_only else sorted(awake + sleepers))
        assert engine.trace.look_count == len(kinds)

    def test_crashed_idle_robots_are_seen_where_they_fell(self):
        run = Run(
            [0, 5],
            [(0, 1, [("wake", 5, [("until", 2.0)]), ("wake", 0, None), ("until", 2.0)])],
            0,
            WorldConfig(crash_on_wake=1.0),
        )
        run.check()
        assert all(
            run.world.robots[rid].crashed for rid in run.sleeper_ids.values()
        )

    @settings(max_examples=100, deadline=None)
    @given(
        team_specs=st.lists(flight_teams, min_size=1, max_size=2),
        watchers=posts,
        slow=st.sets(st.integers(1, 8), max_size=3),
    )
    @example(  # one-row strips; Looks at the flight's origin and beside a row
        team_specs=[(0, 4, [("until", 1.0), ("team", 0, [0, 1, 3, 5], 8)])],
        watchers=[(0, [1.0, 1.2, 1.7]), (6, [1.5, 2.5]), (7, [1.1, 3.0])],
        slow=set(),
    )
    @example(  # multi-row strips, slow members, zero first hop and tail
        team_specs=[(2, 3, [("until", 1.0), ("team", 1, [2, 3, 4], 2)])],
        watchers=[(2, [1.0, 2.5, 4.0]), (5, [1.5, 3.5, 6.0]), (1, [2.0, 7.0])],
        slow={2, 3},
    )
    @example(  # no tail: every robot walks one stop, as AWave hands back
        team_specs=[(8, 3, [("until", 1.0), ("team", 1, [3], None)])],
        watchers=[(8, [1.0, 2.0]), (5, [3.5, 4.0, 6.0])],
        slow={1},
    )
    def test_looks_inside_team_sweeps_match_the_oracle(self, team_specs, watchers, slow):
        run = Run([], team_specs, 0, WorldConfig(), slow, watchers)
        run.check()
        assert run.looks > 0

    def test_team_sweep_builds_stand_ins_only_for_a_look_in_its_box(self):
        """Three robots walk from (3, 4) to (0, 2).  The source's Look at
        (0, 0) misses the flight's padded box and builds no stand-in; its
        Look on arrival at (2, 1) lands in the box and builds all three."""
        team = [(8, 3, [("until", 1.0), ("team", 1, [5], None)])]
        run = Run([], team, 0, WorldConfig(), watchers=[(0, [1.5])])
        run.engine.run(until=3.0)
        (flight,) = [p.flight for p in run.engine._processes.values() if p.flight]
        assert flight.stand_ins is None
        run.engine.run(until=3.5)
        assert [m.robot_ids for m in flight.stand_ins] == [[1], [2], [3]]
        run.check()

    def test_team_sweep_is_seen_at_issue_arrival_and_release(self):
        """The watch example lands its Looks where it claims to."""
        run = Run([], TEAM_SWEEP_WATCH, 0, WorldConfig(), slow={2})
        run.check()
        team = {1, 2}

        def sightings(time):
            return [
                {v.robot_id: v.position for v in snap.robots if v.robot_id in team}
                for snap in run.snapshots
                if snap.time == time
            ]

        meet = PALETTE[3]
        # Issue instant: both robots still at the origin.
        assert {1: Point(0.0, 0.0), 2: Point(0.0, 0.0)} in sightings(1.0)
        # Between the arrivals: robot 1 waits at the meeting point while
        # slow robot 2 is 0.8 of the way along its tail.
        (between,) = sightings(6.0)
        assert between[1] == meet
        assert close_to(between[2], Point(1.6, 0.7), 1e-12)
        # Release instant: the watchers' six Looks, each of the whole team.
        watchers = [seen for seen in sightings(7.0) if len(seen) == 2]
        assert len(watchers) >= 6
        assert all(seen == {1: meet, 2: meet} for seen in watchers)
