"""DFSampling (Lemma 5): sampling validity, recruitment, coverage."""

import random

from repro.core import TeamKnowledge, dfsampling
from repro.geometry import (
    Point,
    Rect,
    covers,
    is_ell_sampling,
    square_at_center,
)
from repro.sim import Engine, SOURCE_ID, World


def run_sampling(positions, ell, cap, region=None, seeds=None):
    world = World(source=Point(0, 0), positions=positions)
    engine = Engine(world)
    region = region or square_at_center(Point(0, 0), 64.0)
    outcomes = []
    knowledge = TeamKnowledge(members={SOURCE_ID: Point(0, 0)})

    def program(proc):
        outcome = yield from dfsampling(
            proc,
            region=region,
            owns=lambda p: region.contains(p),
            seeds=seeds or [Point(0, 0)],
            ell=ell,
            recruit_cap=cap,
            knowledge=knowledge,
            key_base=("test",),
        )
        outcomes.append(outcome)

    engine.spawn(program, [SOURCE_ID])
    result = engine.run()
    return outcomes[0], knowledge, world, result


def chain(n, step):
    return [Point((i + 1) * step, 0.0) for i in range(n)]


class TestSamplingInvariants:
    def test_sample_is_ell_sampling(self):
        rng = random.Random(2)
        pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(40)]
        outcome, _, _, _ = run_sampling(pts, ell=2.0, cap=100)
        assert is_ell_sampling(outcome.sampled, ell=2.0)

    def test_recruits_are_at_sampled_positions(self):
        pts = chain(10, step=1.5)
        outcome, _, world, _ = run_sampling(pts, ell=1.0, cap=100)
        sampled = set(outcome.sampled)
        for rid, home in outcome.recruited.items():
            assert home in sampled
            assert world.robots[rid].awake

    def test_cap_respected(self):
        pts = chain(20, step=1.5)
        outcome, _, world, _ = run_sampling(pts, ell=1.0, cap=5)
        assert len(outcome.recruited) == 5
        assert outcome.hit_cap
        assert not outcome.covered

    def test_zero_cap_short_circuits(self):
        outcome, _, _, result = run_sampling(chain(5, 1.0), ell=1.0, cap=0)
        assert outcome.hit_cap
        assert outcome.recruited == {}
        assert result.termination_time == 0.0


class TestCoverage:
    def test_exhaustive_run_discovers_every_robot(self):
        """Lemma 5 case (2): cap not reached => every robot discovered."""
        rng = random.Random(9)
        # An ell-connected cloud.
        pts = []
        x, y = 0.0, 0.0
        for _ in range(25):
            x += rng.uniform(-1.2, 1.6)
            y += rng.uniform(-1.2, 1.2)
            pts.append(Point(x, y))
        ell = 2.0
        outcome, knowledge, world, _ = run_sampling(pts, ell=ell, cap=10_000)
        assert outcome.covered
        known = set(knowledge.members) | set(knowledge.sleeping)
        assert known >= set(range(1, 26)), "some robot was never discovered"
        # Coverage in the geometric sense of Section 2.4.
        assert covers(outcome.sampled, pts, ell=2 * ell)

    def test_team_grows_during_run(self):
        pts = chain(8, step=1.5)
        outcome, _, world, _ = run_sampling(pts, ell=1.0, cap=100)
        # All chain robots recruited: spacing 1.5 > ell = 1.
        assert len(outcome.recruited) == 8

    def test_close_pairs_recruit_only_one(self):
        # Two robots 0.3 apart with ell=1: only one is sampled/recruited,
        # but both must be discovered.
        pts = [Point(1.0, 0.0), Point(1.3, 0.0)]
        outcome, knowledge, _, _ = run_sampling(pts, ell=1.0, cap=100)
        assert len(outcome.recruited) == 1
        assert set(knowledge.sleeping) | set(knowledge.members) >= {1, 2}


class TestOwnership:
    def test_only_owned_robots_recruited(self):
        region = Rect(0.0, -5.0, 10.0, 5.0)
        own_half = Rect(0.0, -5.0, 5.0, 5.0)
        pts = chain(6, step=1.4)  # x = 1.4 .. 8.4
        world = World(source=Point(0, 0), positions=pts)
        engine = Engine(world)
        knowledge = TeamKnowledge(members={SOURCE_ID: Point(0, 0)})
        outcomes = []

        def program(proc):
            outcome = yield from dfsampling(
                proc,
                region=region,
                owns=lambda p: own_half.contains_half_open(p),
                seeds=[Point(0, 0)],
                ell=1.0,
                recruit_cap=100,
                knowledge=knowledge,
                key_base=("own",),
            )
            outcomes.append(outcome)

        engine.spawn(program, [SOURCE_ID])
        engine.run()
        for rid, home in outcomes[0].recruited.items():
            assert own_half.contains_half_open(home)
        # Robots beyond x=5 stay asleep.
        for rid in range(1, 7):
            robot = world.robots[rid]
            if robot.home.x >= 5.0:
                assert not robot.awake


class TestSeedHandling:
    def test_covered_seed_skipped(self):
        # Two seeds 0.5 apart with ell=1: whichever comes second in the
        # Sort(X) order is already covered and must be skipped.
        seeds = [Point(1.0, 0.0), Point(1.5, 0.0)]
        outcome, knowledge, world, _ = run_sampling(
            [Point(1.0, 0.0), Point(1.5, 0.0)], ell=1.0, cap=100, seeds=seeds
        )
        assert sum(1 for s in outcome.sampled if s in seeds) == 1
        # The robot at the sampled seed is recruited; the other one is at
        # least discovered.
        assert len(outcome.recruited) == 1
        assert set(knowledge.sleeping) | set(knowledge.members) >= {1, 2}

    def test_disconnected_cluster_not_found_without_seed(self):
        # A far cluster beyond 2*ell of anything sampled stays unknown —
        # exactly why ASeparator needs separator seeds.
        pts = [Point(1.0, 0.0), Point(30.0, 0.0)]
        outcome, knowledge, world, _ = run_sampling(pts, ell=1.0, cap=100)
        assert not world.robots[2].awake
        assert outcome.covered  # exhausted without reaching the cap
