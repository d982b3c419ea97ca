"""The ``Tour`` action: a fixed walk of ``(Move, WaitUntil)`` legs, one event.

A tour must be observationally identical to yielding each leg's Move and
then its WaitUntil: the same odometers (float op for float op), the same
resume instant and position, and the same sightings for every observer —
while costing one queue event for the whole walk.  Several walkers issue
the same tour object here, from one point or from points a sign of zero
apart, at one or several speeds; each flies alone on its own timetable,
as a lattice ``Sweep`` does.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.geometry import EPS, Point
from repro.sim import SOURCE_ID, Engine, Look, Move, Tour, WaitUntil, World
from repro.sim.errors import EnergyBudgetExceeded

#: Leg corners: signed zeros, two points one sign of zero apart and a
#: point within EPS of another, so some legs are Move's teleports, and one
#: corner out of sight of all the others.
CORNERS = (
    Point(0.0, 0.0),
    Point(-0.0, 1.0),
    Point(0.0, 1.0),
    Point(1.0, 1.0),
    Point(1.0 + 0.5 * EPS, 1.0),
    Point(2.0, -0.0),
    Point(-1.5, 0.5),
    Point(0.5, -1.0),
    Point(4.0, 3.0),
)
#: Walker origins, three of them one sign of zero apart: a Look at the
#: start instant must report each walker at its own origin's bits.
ORIGINS = (Point(0.0, 0.0), Point(-0.0, 0.0), Point(0.0, -0.0), Point(0.5, 0.25))
#: Walkers start together, after the observers' first Looks.
START = 1.0
SPEEDS = (1.0, 0.7, 0.5)


def observed(snapshot):
    return [
        (v.robot_id, v.awake, v.position[0].hex(), v.position[1].hex())
        for v in snapshot.robots
    ]


def make_tour(spec):
    """``spec``: ``(corner index, wait time in half units)`` per leg."""
    return Tour([(Move(CORNERS[c]), WaitUntil(0.5 * w)) for c, w in spec])


def walk(tour, walkers, *, use_tour, posts=(), times=(), budget=math.inf):
    """Walk ``tour`` with every walker; observers at ``posts`` Look at ``times``.

    ``walkers`` lists ``(origin index, robot speeds)``: one process per
    walker, owning one robot per speed.  Returns what every robot and
    observer ended with, or, when a budget runs out, the error.
    """
    homes = [ORIGINS[at] for at, team in walkers for _ in team]
    world = World(source=homes[0], positions=homes[1:] + list(posts))
    engine = Engine(world)
    out = {"ends": {}, "legs": {}, "seen": []}
    rid = 0
    for at, team in walkers:
        ids = list(range(rid, rid + len(team)))
        rid += len(team)
        for r, speed in zip(ids, team):
            if r != SOURCE_ID:
                world.mark_awake(r, 0.0, None)
            world.robots[r].speed = speed
            world.robots[r].budget = budget

        def walker(proc):
            yield WaitUntil(START)
            legs = out["legs"][proc.pid] = []
            if use_tour:
                yield tour
            else:
                for move, wait in tour.legs:
                    here = proc.position
                    issued = proc.time
                    yield move
                    arrived = proc.time
                    yield wait
                    target = move.target
                    teleport = math.hypot(here[0] - target[0], here[1] - target[1]) <= EPS
                    legs.append((issued, arrived, proc.time, teleport))
            x, y = proc.position
            out["ends"][proc.pid] = (proc.time.hex(), x.hex(), y.hex())

        engine.spawn(walker, ids, position=ORIGINS[at])
    for post in range(rid, rid + len(posts)):
        world.mark_awake(post, 0.0, None)

        def observer(proc):
            for t in times:
                yield WaitUntil(t)
                out["seen"].append((proc.pid, observed((yield Look()).value)))

        engine.spawn(observer, [post])
    try:
        result = engine.run()
    except EnergyBudgetExceeded as err:
        out["error"] = (err.robot_id, err.attempted.hex(), err.budget.hex(), engine.now)
    else:
        out["end"] = result.termination_time.hex()
        out["events"] = result.events_processed
    out["odometers"] = [world.robots[r].odometer.hex() for r in range(rid)]
    return out


leg_specs = st.lists(
    st.tuples(st.integers(0, len(CORNERS) - 1), st.integers(0, 14)),
    min_size=1,
    max_size=9,
)
walker_specs = st.lists(
    st.tuples(
        st.integers(0, len(ORIGINS) - 1),
        st.lists(st.sampled_from(SPEEDS), min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=3,
)


class TestTourIsItsChain:
    @settings(max_examples=200, deadline=None)
    @given(
        spec=leg_specs,
        walkers=walker_specs,
        bounded=st.booleans(),
        fractions=st.lists(st.floats(0.01, 0.99), max_size=5),
        post=st.tuples(st.floats(-2.0, 2.5), st.floats(-1.5, 1.5)),
    )
    @example(  # three walkers, one a team with a slow robot, a late first
        # leg, a teleport between sign-of-zero twins, a -0.0 corner
        spec=[(3, 0), (2, 8), (1, 9), (5, 14), (5, 2)],
        walkers=[(0, [1.0]), (0, [1.0, 0.5]), (1, [1.0])],
        bounded=False,
        fractions=[0.3, 0.7],
        post=(0.5, 0.5),
    )
    @example(  # walkers of two speeds from one origin: two timetables
        spec=[(3, 2), (6, 9)],
        walkers=[(3, [1.0]), (3, [0.7])],
        bounded=False,
        fractions=[0.4],
        post=(0.8, 0.6),
    )
    @example(  # a wait at a corner only the third post can see
        spec=[(3, 2), (8, 12)],
        walkers=[(0, [1.0])],
        bounded=False,
        fractions=[0.8],
        post=(0.0, 0.0),
    )
    @example(  # every leg a teleport: the walk ends at its last wait
        spec=[(0, 4), (0, 6)],
        walkers=[(0, [1.0]), (1, [0.7])],
        bounded=True,
        fractions=[0.5],
        post=(0.0, 0.5),
    )
    def test_matches_move_waituntil_chain(self, spec, walkers, bounded, fractions, post):
        tour = make_tour(spec)
        budget = 1e6 if bounded else math.inf
        reference = walk(tour, walkers, use_tour=False, budget=budget)
        end = float.fromhex(reference["end"])
        boundaries = {t for legs in reference["legs"].values() for leg in legs for t in leg[:3]}
        # A teleport lands at its issue instant, so there equal-time event
        # order decides which side of it an observer sees; Look everywhere
        # else, leg boundaries included.
        teleports = {
            issued for legs in reference["legs"].values()
            for issued, _, _, teleport in legs if teleport
        }
        times = sorted(
            ({START} | boundaries | {START + f * (end - START) for f in fractions})
            - teleports
        )
        assume(times)
        posts = (Point(*post), Point(0.5, 0.5), Point(3.5, 3.0))
        chain = walk(tour, walkers, use_tour=False, posts=posts, times=times, budget=budget)
        flown = walk(tour, walkers, use_tour=True, posts=posts, times=times, budget=budget)
        for key in ("ends", "odometers", "seen", "end"):
            assert flown[key] == chain[key], key
        assert len(flown["seen"]) == len(times) * len(posts)
        assert flown["events"] < chain["events"]

    def test_one_event_per_walk(self):
        tour = make_tour([(3, 4), (5, 8), (7, 0)])
        chain = walk(tour, [(0, [1.0])], use_tour=False)
        flown = walk(tour, [(0, [1.0])], use_tour=True)
        # Start and WaitUntil(START) each; then two events per leg, or one.
        assert chain["events"] == 2 + 2 * 3
        assert flown["events"] == 2 + 1

    def test_walkers_fly_alone(self):
        """Walkers of one tour object from one point at one instant and
        speed each get their own Look-index entry and timetable."""
        tour = make_tour([(3, 4), (5, 8)])
        world = World(source=ORIGINS[0], positions=[ORIGINS[0], ORIGINS[1]])
        for rid in (1, 2):
            world.mark_awake(rid, 0.0, None)
        engine = Engine(world)

        def walker(proc):
            yield tour

        for rid in (0, 1, 2):
            engine.spawn(walker, [rid], position=ORIGINS[rid // 2])
        engine.run(until=0.5)
        procs = [engine._processes[pid] for pid in (0, 1, 2)]
        assert [engine._convoys[proc].members for proc in procs] == [[proc] for proc in procs]
        assert procs[0].motion_ends == procs[1].motion_ends
        assert procs[0].motion_ends is not procs[1].motion_ends
        engine.run()

    def test_budget_overrun_raises_at_issue(self):
        """Sweep's asymmetry: the overrun on leg 2 raises with the same
        arguments and odometer as the chain, but at the issue instant."""
        tour = make_tour([(3, 4), (6, 8), (7, 12)])
        lengths = tour.leg_lengths(ORIGINS[0])
        budget = lengths[0] + 0.5 * lengths[1]
        chain = walk(tour, [(0, [1.0])], use_tour=False, budget=budget)
        flown = walk(tour, [(0, [1.0])], use_tour=True, budget=budget)
        assert flown["error"][:3] == chain["error"][:3]
        assert flown["odometers"] == chain["odometers"] == [lengths[0].hex()]
        assert flown["error"][3] == START < chain["error"][3]

    def test_tour_needs_move_waituntil_legs(self):
        with pytest.raises(ValueError):
            Tour([])
        with pytest.raises(TypeError):
            Tour([(WaitUntil(1.0), Move(Point(1.0, 0.0)))])
