"""AGrid integration: full wake-up, energy budget, wave structure."""

import math

import pytest

import repro.core.agrid as agrid_mod
from repro.core.agrid import (
    CellGrid,
    NEIGHBOR_OFFSETS,
    agrid_energy_budget,
    agrid_program,
    agrid_round_start,
    agrid_window,
    agrid_window_start,
)
from repro.core.runner import run_agrid
from repro.geometry import Point
from repro.instances import (
    beaded_path,
    connected_walk,
    get_scenario,
    grid_lattice,
    spiral,
    uniform_disk,
)
from repro.sim import SOURCE_ID, Engine, EnergyBudgetExceeded, ProtocolError, Trace

FAMILIES = [
    uniform_disk(n=40, rho=8.0, seed=7),
    beaded_path(n=30, spacing=1.0),
    beaded_path(n=15, spacing=2.0, seed=1, wiggle=0.4),
    grid_lattice(side=6, spacing=1.5),
    connected_walk(n=40, step=1.0, seed=9),
    spiral(n=50, spacing=1.0),
]


class TestCellGrid:
    def test_source_cell_is_centered(self):
        grid = CellGrid(source=Point(0, 0), width=4.0)
        assert grid.cell_of(Point(0, 0)) == (0, 0)
        assert grid.rect((0, 0)).center == Point(0, 0)

    def test_half_open_cells_partition(self):
        grid = CellGrid(source=Point(0, 0), width=4.0)
        # Right/top edges belong to the next cell.
        assert grid.cell_of(Point(2.0, 0.0)) == (1, 0)
        assert grid.cell_of(Point(-2.0, 0.0)) == (0, 0)
        assert grid.cell_of(Point(0.0, 2.0)) == (0, 1)

    def test_owns_predicate(self):
        grid = CellGrid(source=Point(1, 1), width=2.0)
        owns = grid.owns((0, 0))
        assert owns(Point(1, 1))
        assert not owns(Point(3, 1))

    def test_neighbors_ccw_unique(self):
        grid = CellGrid(source=Point(0, 0), width=2.0)
        neighbors = [grid.neighbor((0, 0), i) for i in range(1, 9)]
        assert len(set(neighbors)) == 8
        assert neighbors[0] == (1, 0)   # East first
        assert (0, 0) not in neighbors

    def test_offsets_cover_king_moves(self):
        assert set(NEIGHBOR_OFFSETS) == {
            (di, dj)
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if (di, dj) != (0, 0)
        }


class TestWindows:
    def test_window_is_quadratic_in_ell(self):
        assert agrid_window(4) > agrid_window(2) > agrid_window(1)
        # Θ(ell^2): the doubling ratio tends to 4 once the quadratic
        # exploration term dominates the linear propagation/move terms.
        assert 2.8 < agrid_window(64) / agrid_window(32) < 4.2
        assert 3.4 < agrid_window(256) / agrid_window(128) < 4.1

    def test_round_and_window_starts_monotone(self):
        for ell in (1, 3):
            times = [agrid_round_start(ell, k) for k in range(1, 5)]
            assert times == sorted(times)
            w = [agrid_window_start(ell, 2, i) for i in range(1, 9)]
            assert w == sorted(w)
            assert w[0] > agrid_round_start(ell, 2)


class TestCorrectness:
    @pytest.mark.parametrize(
        "instance", FAMILIES, ids=[inst.name for inst in FAMILIES]
    )
    def test_wakes_every_robot(self, instance):
        run = run_agrid(instance)
        assert run.woke_all, f"{instance.name}: {run.result.summary()}"

    def test_boundary_robot_edge_case(self):
        """A robot exactly on the source cell's boundary: the source's own
        round-1 participation must still reach it."""
        from repro.instances import Instance

        inst = Instance(positions=(Point(1.0, 0.0),), name="edge")  # ell=1 cell edge
        run = run_agrid(inst, ell=1)
        assert run.woke_all

    def test_deterministic(self):
        inst = beaded_path(n=20, spacing=1.0)
        assert run_agrid(inst).makespan == run_agrid(inst).makespan


class TestEnergy:
    @pytest.mark.parametrize(
        "instance", FAMILIES[:4], ids=[inst.name for inst in FAMILIES[:4]]
    )
    def test_energy_within_theorem4_budget(self, instance):
        run = run_agrid(instance)
        assert run.max_energy <= agrid_energy_budget(run.ell)

    def test_enforced_budget_run_passes(self):
        """Theorem 4's energy claim, enforced by the engine itself."""
        inst = beaded_path(n=20, spacing=1.0)
        run = run_agrid(inst, enforce_budget=True)
        assert run.woke_all

    def test_energy_independent_of_path_length(self):
        """Per-robot energy is Θ(ell^2) — it must NOT grow with xi."""
        short = run_agrid(beaded_path(n=10, spacing=1.0))
        long = run_agrid(beaded_path(n=40, spacing=1.0))
        assert long.max_energy <= 1.5 * short.max_energy + 10.0


class TestMakespanShape:
    def test_linear_in_xi(self):
        """Thm 4: makespan Θ(ell * xi) on corridors."""
        m = {}
        for n in (10, 20, 40):
            inst = beaded_path(n=n, spacing=1.0)
            run = run_agrid(inst)
            assert run.woke_all
            m[n] = run.makespan / inst.xi(run.ell)
        values = list(m.values())
        # makespan/xi roughly flat (within 2x across a 4x range of xi).
        assert max(values) <= 2.5 * min(values)


def walk_observables(monkeypatch, instance, *, tours, config=None, budget=math.inf,
                     tweak=None):
    """Run AGrid on ``instance`` and return what it did, or how it failed.

    With ``tours=False`` the follower walk is refused everywhere, so every
    robot walks its windows leg by leg: the reference.  ``tweak`` edits
    the world before the run.
    """
    raised = []
    with monkeypatch.context() as patch:
        if not tours:
            patch.setattr(agrid_mod, "_tour_admissible", lambda *args: False)
        check = agrid_mod._assert_on_time

        def recording(proc, deadline, label):
            try:
                check(proc, deadline, label)
            except ProtocolError:
                raised.append((proc.robot_ids, label))
                raise

        patch.setattr(agrid_mod, "_assert_on_time", recording)
        if config is None:
            world = instance.world(budget=budget)
        else:
            world = instance.world(config=config.with_budget_cap(budget))
        if tweak is not None:
            tweak(world)
        speed_floor = 1.0 if config is None else config.min_speed()
        crash_aware = config is not None and config.crash_on_wake > 0.0
        ell = instance.default_inputs()[0]
        trace = Trace(keep_looks=True)
        engine = Engine(world, trace=trace)
        engine.spawn(
            agrid_program(ell, speed_floor=speed_floor, crash_aware=crash_aware),
            [SOURCE_ID],
        )
        out = {}
        try:
            result = engine.run()
        except EnergyBudgetExceeded as err:
            out["error"] = ("budget", err.robot_id, err.attempted.hex(), err.budget.hex())
        except ProtocolError as err:
            out["error"] = ("late", raised, str(err))
        else:
            out.update(
                makespan=result.makespan.hex(),
                end=result.termination_time.hex(),
                wakes={rid: t.hex() for rid, t in result.wake_times.items()},
                snapshots=result.snapshots,
            )
    out["now"] = engine.now.hex()
    out["odometers"] = {rid: robot.odometer.hex() for rid, robot in world.robots.items()}
    # Looks (time, observer, count, where), wakes, phases and process
    # starts keep their order; a follower ends at its last window's start
    # either way, but its walk is queued earlier than a leg-by-leg
    # walker's last wait, so at that instant its end may move among others.
    out["stream"] = [
        (e.time, e.kind, e.process_id, sorted(e.data.items()))
        for e in trace.events
        if e.kind not in ("move", "process_end")
    ]
    out["ends"] = sorted(
        (e.time, e.process_id) for e in trace.events if e.kind == "process_end"
    )
    robots = {e.process_id: e.data["robots"] for e in trace.of_kind("process_start")}
    out["tours"] = [
        robots[e.process_id][0] for e in trace.of_kind("move") if e.data["waypoints"] == 8
    ]
    out["events"] = engine.events_processed
    return out


def assert_walks_agree(flown, walked):
    """Equal observables; after an abort, the same error at the same
    instant from the same robot, whose odometer agrees (a tour charges its
    legs when issued, so other followers' odometers are ahead)."""
    keys = ["error", "makespan", "end", "wakes", "snapshots", "now", "stream", "ends"]
    error = walked.get("error")
    if error is None:
        keys.append("odometers")
    else:
        culprits = [error[1]] if error[0] == "budget" else [r for ids, _ in error[1] for r in ids]
        for rid in culprits:
            assert flown["odometers"][rid] == walked["odometers"][rid]
    for key in keys:
        assert flown.get(key) == walked.get(key), key
    assert not walked["tours"]


class TestFollowerTours:
    """A follower walks its 8 windows as one ``Tour``, pinned to the
    per-leg walk it replaces (the loop that :func:`_tour_admissible`
    refusing everywhere leaves)."""

    @pytest.mark.parametrize(
        "family,kwargs,budget",
        [
            ("uniform_disk", {"n": 60, "rho": 12.0, "seed": 1}, False),
            ("beaded_path", {"n": 30, "spacing": 1.0}, False),
            ("slow_swarm", {"n": 60, "rho": 10.0, "seed": 3}, False),
            ("fragile_swarm", {"n": 40, "rho": 8.0, "seed": 4}, False),
            ("beaded_path", {"n": 20, "spacing": 1.0}, True),
        ],
        ids=["uniform_disk", "beaded_path", "slow_swarm", "fragile_swarm", "enforce_budget"],
    )
    def test_tours_equal_the_per_leg_walk(self, monkeypatch, family, kwargs, budget):
        spec = get_scenario(family)
        instance = spec.make(**kwargs)
        config = None if spec.world.is_default() else spec.world
        cap = agrid_energy_budget(instance.default_inputs()[0]) if budget else math.inf
        flown = walk_observables(monkeypatch, instance, tours=True, config=config, budget=cap)
        walked = walk_observables(monkeypatch, instance, tours=False, config=config, budget=cap)
        assert "error" not in walked
        assert_walks_agree(flown, walked)
        assert flown["tours"]
        assert flown["events"] < walked["events"]

    #: A source-cell robot of ``uniform_disk(n=40, rho=8, seed=7)`` (ell=4)
    #: that follows in round 1 after a 2-unit gather: a tour of eight
    #: 8-unit legs from t = W.
    FOLLOWER = 21

    def test_budget_that_runs_out_mid_tour_walks_leg_by_leg(self, monkeypatch):
        """The overrun raises where the per-leg walk raises it, on a leg
        after the round start, not when the tour would be issued."""
        instance = uniform_disk(n=40, rho=8.0, seed=7)
        free = walk_observables(monkeypatch, instance, tours=True)
        assert self.FOLLOWER in free["tours"]
        spent = float.fromhex(free["odometers"][self.FOLLOWER])

        def tweak(world):
            world.robots[self.FOLLOWER].budget = spent - 0.55 * 64.0

        flown = walk_observables(monkeypatch, instance, tours=True, tweak=tweak)
        walked = walk_observables(monkeypatch, instance, tours=False, tweak=tweak)
        assert_walks_agree(flown, walked)
        assert walked["error"][:2] == ("budget", self.FOLLOWER)
        assert float.fromhex(walked["now"]) > agrid_round_start(4, 1)
        assert flown["tours"]

    @pytest.mark.parametrize("miscalibration", ["window_start", "speed_floor"])
    def test_late_leg_raises_as_the_per_leg_walk_does(self, monkeypatch, miscalibration):
        """A window start set too early, or a follower slower than the
        speed floor the windows were stretched for: the leg is late, and
        the follower that walks it raises at the per-leg walk's instant."""
        instance = uniform_disk(n=40, rho=8.0, seed=7)
        followers = walk_observables(monkeypatch, instance, tours=True)["tours"]
        tweak = None
        if miscalibration == "window_start":
            real = agrid_mod.agrid_window_start

            def early_fifth(ell, k, i, speed_floor=1.0):
                start = real(ell, k, i, speed_floor)
                return start - 0.97 * agrid_window(ell) if (k, i) == (1, 5) else start

            monkeypatch.setattr(agrid_mod, "agrid_window_start", early_fifth)
        else:
            def tweak(world):
                # An 8-unit leg takes 1.1 windows; the gather still fits.
                world.robots[self.FOLLOWER].speed = 8.0 / (1.1 * agrid_window(4))

        flown = walk_observables(monkeypatch, instance, tours=True, tweak=tweak)
        walked = walk_observables(monkeypatch, instance, tours=False, tweak=tweak)
        assert_walks_agree(flown, walked)
        kind, raised, message = walked["error"]
        assert kind == "late" and "window calibration" in message
        ((robots, label),) = raised
        assert label.startswith("agrid window")
        assert robots[0] in followers
        if miscalibration == "speed_floor":
            assert robots == (self.FOLLOWER,)
            assert flown["tours"]
