"""AGrid integration: full wake-up, energy budget, wave structure."""

import hashlib
import json
import math

import pytest

import repro.core.agrid as agrid_mod
import repro.sim.engine as engine_mod
from repro.core.agrid import (
    CellGrid,
    NEIGHBOR_OFFSETS,
    agrid_energy_budget,
    agrid_program,
    agrid_round_start,
    agrid_window,
    agrid_window_start,
)
from repro.core.awave import awave_round_start, awave_window_start
from repro.core.runner import RunRequest, run_agrid
from repro.geometry import Point
from repro.instances import (
    beaded_path,
    connected_walk,
    get_scenario,
    grid_lattice,
    spiral,
    uniform_disk,
)
from repro.metrics import summarize
from repro.sim import (
    SOURCE_ID,
    Engine,
    EnergyBudgetExceeded,
    Look,
    ProtocolError,
    Trace,
    WorldConfig,
)

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


#: ``float.hex()`` per ``(ell, round, speed_floor)``: AGrid's round start,
#: window 1 and window 8, then AWave's round start, window 1 and window 8.
_CLOCK_HEX = {
    (1, 1, 1.0): (
        "0x1.f818f8ce34e31p+5", "0x1.f818f8ce34e31p+6", "0x1.1b8e0bf3fdbfcp+9",
        "0x1.d5413cccfe77ap+13", "0x1.d5413cccfe77ap+14", "0x1.07f4b2334f235p+17",
    ),
    (1, 1, 0.3): (
        "0x1.a414cf568167ep+7", "0x1.a414cf568167ep+8", "0x1.d89769415194ep+10",
        "0x1.870bb2aad40e6p+15", "0x1.870bb2aad40e6p+16", "0x1.b7ed29002e903p+18",
    ),
    (1, 1, 0.05): (
        "0x1.3b0f9b80e10dep+10", "0x1.3b0f9b80e10dep+11", "0x1.62718ef0fd2fap+13",
        "0x1.2548c6001f0acp+18", "0x1.2548c6001f0acp+19", "0x1.49f1dec022ec2p+21",
    ),
    (1, 3, 1.0): (
        "0x1.2b4ed3ba6f66ep+10", "0x1.3b0f9b80e10e0p+10", "0x1.a95511edfc9fap+10",
        "0x1.169ebc19b7171p+18", "0x1.2548c6001f0adp+18", "0x1.8bef0b4cf6b50p+18",
    ),
    (1, 3, 0.3): (
        "0x1.f2d8b636b9ab6p+11", "0x1.068d019610e0fp+12", "0x1.62718ef0fd2fap+12",
        "0x1.d05de42adbd11p+19", "0x1.e8ce9f558911fp+19", "0x1.49f1dec022ec2p+20",
    ),
    (1, 3, 0.05): (
        "0x1.762288a90b408p+14", "0x1.89d3826119516p+14", "0x1.09d52b34bde3cp+15",
        "0x1.5c466b2024dcdp+22", "0x1.6e9af78026cd8p+22", "0x1.eeeace2034623p+22",
    ),
    (1, 12, 1.0): (
        "0x1.89d3826119516p+12", "0x1.8dc3b452b5bb2p+12", "0x1.a95511edfc9f9p+12",
        "0x1.6e9af78026cd7p+20", "0x1.724579f9c0ca6p+20", "0x1.8bef0b4cf6b4fp+20",
    ),
    (1, 12, 0.3): (
        "0x1.483041fb95192p+14", "0x1.4b786b9a421bfp+14", "0x1.62718ef0fd2fap+14",
        "0x1.3181239575ab4p+22", "0x1.348f3afacb536p+22", "0x1.49f1dec022ec2p+22",
    ),
    (1, 12, 0.05): (
        "0x1.ec4862f95fa5ap+16", "0x1.f134a1676329dp+16", "0x1.09d52b34bde3bp+17",
        "0x1.ca41b5603080dp+24", "0x1.ced6d87830fd0p+24", "0x1.eeeace2034622p+24",
    ),
    (2, 1, 1.0): (
        "0x1.edc12067d4b21p+6", "0x1.edc12067d4b21p+7", "0x1.15bca23a67a43p+10",
        "0x1.d5413cccfe77ap+13", "0x1.d5413cccfe77ap+14", "0x1.07f4b2334f235p+17",
    ),
    (2, 1, 0.3): (
        "0x1.9b7645abdbe9cp+8", "0x1.9b7645abdbe9cp+9", "0x1.cee50e6157670p+11",
        "0x1.870bb2aad40e6p+15", "0x1.870bb2aad40e6p+16", "0x1.b7ed29002e903p+18",
    ),
    (2, 1, 0.05): (
        "0x1.3498b440e4ef4p+11", "0x1.3498b440e4ef4p+12", "0x1.5b2bcac9018d2p+14",
        "0x1.2548c6001f0acp+18", "0x1.2548c6001f0acp+19", "0x1.49f1dec022ec2p+21",
    ),
    (2, 3, 1.0): (
        "0x1.252aab3da649cp+11", "0x1.3498b440e4ef5p+11", "0x1.a09af3579b764p+11",
        "0x1.169ebc19b7171p+18", "0x1.2548c6001f0adp+18", "0x1.8bef0b4cf6b50p+18",
    ),
    (2, 3, 0.3): (
        "0x1.e89c72bc1525ap+12", "0x1.0129eb8b69722p+13", "0x1.5b2bcac9018d4p+13",
        "0x1.d05de42adbd11p+19", "0x1.e8ce9f558911fp+19", "0x1.49f1dec022ec2p+20",
    ),
    (2, 3, 0.05): (
        "0x1.6e75560d0fdc1p+15", "0x1.81bee1511e2b0p+15", "0x1.0460d816c129ep+16",
        "0x1.5c466b2024dcdp+22", "0x1.6e9af78026cd8p+22", "0x1.eeeace2034623p+22",
    ),
    (2, 12, 1.0): (
        "0x1.81bee1511e2b2p+13", "0x1.859a6391edd48p+13", "0x1.a09af3579b764p+13",
        "0x1.6e9af78026cd7p+20", "0x1.724579f9c0ca6p+20", "0x1.8bef0b4cf6b4fp+20",
    ),
    (2, 12, 0.3): (
        "0x1.4174666e43ceap+15", "0x1.44ab52f99b867p+15", "0x1.5b2bcac9018d4p+15",
        "0x1.3181239575ab4p+22", "0x1.348f3afacb536p+22", "0x1.49f1dec022ec2p+22",
    ),
    (2, 12, 0.05): (
        "0x1.e22e99a565b5dp+17", "0x1.e700fc7669499p+17", "0x1.0460d816c129ep+18",
        "0x1.ca41b5603080dp+24", "0x1.ced6d87830fd0p+24", "0x1.eeeace2034622p+24",
    ),
    (4, 1, 1.0): (
        "0x1.054310e731b9ap+8", "0x1.054310e731b9ap+9", "0x1.25eb730417f0dp+11",
        "0x1.d5413cccfe77ap+13", "0x1.d5413cccfe77ap+14", "0x1.07f4b2334f235p+17",
    ),
    (4, 1, 0.3): (
        "0x1.b36fc6d6a8356p+9", "0x1.b36fc6d6a8356p+10", "0x1.e9ddbfb17d3c1p+12",
        "0x1.870bb2aad40e6p+15", "0x1.870bb2aad40e6p+16", "0x1.b7ed29002e903p+18",
    ),
    (4, 1, 0.05): (
        "0x1.4693d520fe280p+12", "0x1.4693d520fe280p+13", "0x1.6f664fc51ded0p+15",
        "0x1.2548c6001f0acp+18", "0x1.2548c6001f0acp+19", "0x1.49f1dec022ec2p+21",
    ),
    (4, 3, 1.0): (
        "0x1.363fa4128b0c7p+12", "0x1.4693d520fe281p+12", "0x1.b8e12c8623e94p+12",
        "0x1.169ebc19b7171p+18", "0x1.2548c6001f0adp+18", "0x1.8bef0b4cf6b50p+18",
    ),
    (4, 3, 0.3): (
        "0x1.028a5e0f73dfbp+14", "0x1.1025dc4629216p+14", "0x1.6f664fc51ded0p+14",
        "0x1.d05de42adbd11p+19", "0x1.e8ce9f558911fp+19", "0x1.49f1dec022ec2p+20",
    ),
    (4, 3, 0.05): (
        "0x1.83cf8d172dcf8p+16", "0x1.9838ca693db20p+16", "0x1.138cbbd3d671cp+17",
        "0x1.5c466b2024dcdp+22", "0x1.6e9af78026cd8p+22", "0x1.eeeace2034623p+22",
    ),
    (4, 12, 1.0): (
        "0x1.9838ca693db20p+14", "0x1.9c4dd6acda78ep+14", "0x1.b8e12c8623e93p+14",
        "0x1.6e9af78026cd7p+20", "0x1.724579f9c0ca6p+20", "0x1.8bef0b4cf6b4fp+20",
    ),
    (4, 12, 0.3): (
        "0x1.542f5357b369cp+16", "0x1.579632e560ba3p+16", "0x1.6f664fc51ded1p+16",
        "0x1.3181239575ab4p+22", "0x1.348f3afacb536p+22", "0x1.49f1dec022ec2p+22",
    ),
    (4, 12, 0.05): (
        "0x1.fe46fd038d1e8p+18", "0x1.01b0a62c088b9p+19", "0x1.138cbbd3d671cp+19",
        "0x1.ca41b5603080dp+24", "0x1.ced6d87830fd0p+24", "0x1.eeeace2034622p+24",
    ),
    (7, 1, 1.0): (
        "0x1.fe6c671b3b1d7p+8", "0x1.fe6c671b3b1d7p+9", "0x1.1f1cf9ff51409p+12",
        "0x1.bf5ad9f115bcbp+15", "0x1.bf5ad9f115bcbp+16", "0x1.f746352f38744p+18",
    ),
    (7, 1, 0.3): (
        "0x1.a95a55ec06989p+10", "0x1.a95a55ec06989p+11", "0x1.de85a0a9876bap+13",
        "0x1.74cbb59e3cc7fp+17", "0x1.74cbb59e3cc7fp+18", "0x1.a3652c520460fp+20",
    ),
    (7, 1, 0.05): (
        "0x1.3f03c07104f26p+13", "0x1.3f03c07104f26p+14", "0x1.66e4387f2590bp+16",
        "0x1.1798c836ad95fp+20", "0x1.1798c836ad95fp+21", "0x1.3a8be13d8348bp+23",
    ),
    (7, 3, 1.0): (
        "0x1.2f105d382b198p+13", "0x1.3f03c07104f27p+13", "0x1.aeab76fef9e0ep+13",
        "0x1.099df16724e80p+20", "0x1.1798c836ad95ep+20", "0x1.7974a7e36a573p+20",
    ),
    (7, 3, 0.3): (
        "0x1.f91b460847d53p+14", "0x1.09d875b3841f6p+15", "0x1.66e4387f2590cp+15",
        "0x1.bab1e7abe82d7p+21", "0x1.d1fea305cbf9fp+21", "0x1.3a8be13d8348bp+22",
    ),
    (7, 3, 0.05): (
        "0x1.7ad4748635dfdp+17", "0x1.8ec4b08d462efp+17", "0x1.0d2b2a5f5c2c8p+18",
        "0x1.4c056dc0ee221p+24", "0x1.5d7efa4458fb7p+24", "0x1.d7d1d1dc44ed0p+24",
    ),
    (7, 12, 1.0): (
        "0x1.8ec4b08d462f0p+15", "0x1.92c1895b7ca54p+15", "0x1.aeab76fef9e0dp+15",
        "0x1.5d7efa4458fb7p+22", "0x1.60fdaff83b26fp+22", "0x1.7974a7e36a574p+22",
    ),
    (7, 12, 0.3): (
        "0x1.4c4e932065273p+17", "0x1.4fa147cc3d346p+17", "0x1.66e4387f2590cp+17",
        "0x1.233f25e39f7c3p+24", "0x1.2628bd4edbf5cp+24", "0x1.3a8be13d8348bp+24",
    ),
    (7, 12, 0.05): (
        "0x1.f275dcb097bacp+19", "0x1.f771ebb25bce9p+19", "0x1.0d2b2a5f5c2c8p+20",
        "0x1.b4deb8d56f3a4p+26", "0x1.b93d1bf649f09p+26", "0x1.d7d1d1dc44ed0p+26",
    ),
}


class TestWindows:
    @pytest.mark.parametrize("ell", [1, 2, 4, 7])
    @pytest.mark.parametrize("k", [1, 3, 12])
    @pytest.mark.parametrize("speed_floor", [1.0, 0.3, 0.05])
    def test_wave_clock_is_bit_exact(self, ell, k, speed_floor):
        """AGrid and AWave share one wave clock, and no deadline moved by
        one bit when they began to: the expected strings were captured
        from these four functions while each algorithm still kept its own
        copy of the arithmetic (and AWave a numpy deadline table pinned to
        it), including ``speed_floor < 1`` worlds."""
        got = (
            agrid_round_start(ell, k, speed_floor),
            agrid_window_start(ell, k, 1, speed_floor),
            agrid_window_start(ell, k, 8, speed_floor),
            awave_round_start(ell, k, speed_floor),
            awave_window_start(ell, k, 1, speed_floor),
            awave_window_start(ell, k, 8, speed_floor),
        )
        assert tuple(t.hex() for t in got) == _CLOCK_HEX[(ell, k, speed_floor)]

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
            world = instance.world(config=WorldConfig(budget=budget))
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


def full_explore_looks(patch):
    """Make AGrid's cell explorations take full Looks, as they used to."""
    explore = agrid_mod.explore_rect

    def full(*args, **kwargs):
        return explore(*args, **{**kwargs, "sleepers_only": False})

    patch.setattr(agrid_mod, "explore_rect", full)


def look_observables(monkeypatch, scenario, kwargs, params, *, full_looks):
    """The record, wake times and trace of one AGrid request; with
    ``full_looks`` its cell explorations take full Looks."""
    with monkeypatch.context() as patch:
        if full_looks:
            full_explore_looks(patch)
        request = RunRequest(
            algorithm="agrid", scenario=scenario, family_kwargs=kwargs, params=params
        )
        trace = Trace(keep_looks=True)
        run = request.execute(trace=trace)
    return {
        "record": summarize(run).as_dict(),
        "wakes": {rid: t.hex() for rid, t in run.result.wake_times.items()},
        # Every event in order, a look's ``count`` aside: a sleepers-only
        # Look returns fewer views from the same place at the same time.
        "stream": [
            (e.time, e.kind, e.process_id,
             sorted((k, v) for k, v in e.data.items() if (e.kind, k) != ("look", "count")))
            for e in trace.events
        ],
        "counts": [e.data["count"] for e in trace.of_kind("look")],
    }


class TestSleepersOnlyLooks:
    """AGrid explores its cells with sleepers-only Looks, pinned to the
    full Looks it took before: awake sightings never reached a wake."""

    CASES = [
        (scenario, kwargs, {"ell": ell})
        for scenario, kwargs in [
            ("uniform_disk", {"n": 60, "rho": 12.0, "seed": 1}),
            ("clusters", {"n": 60, "n_clusters": 3, "rho": 10.0, "seed": 3}),
            ("slow_swarm", {"n": 60, "rho": 10.0, "seed": 3}),
            ("fragile_swarm", {"n": 40, "rho": 8.0, "seed": 4}),
        ]
        for ell in (1, 2, 3)
    ] + [
        ("uniform_disk", {"n": 60, "rho": 12.0, "seed": 1}, {"ell": 2, "enforce_budget": True}),
        ("fragile_swarm", {"n": 40, "rho": 8.0, "seed": 4}, {"ell": 2, "enforce_budget": True}),
    ]

    @pytest.mark.parametrize(
        "scenario,kwargs,params",
        CASES,
        ids=[
            f"{scenario}-ell{params['ell']}" + ("-budget" if len(params) > 1 else "")
            for scenario, _, params in CASES
        ],
    )
    def test_equal_to_full_explore_looks(self, monkeypatch, scenario, kwargs, params):
        sleepers = look_observables(monkeypatch, scenario, kwargs, params, full_looks=False)
        full = look_observables(monkeypatch, scenario, kwargs, params, full_looks=True)
        for key in ("record", "wakes", "stream"):
            assert sleepers[key] == full[key], key
        # The same Looks, each seeing no more than before, and fewer in all.
        assert all(s <= f for s, f in zip(sleepers["counts"], full["counts"]))
        assert sum(sleepers["counts"]) < sum(full["counts"])

    def test_no_awake_index_without_crashes(self, monkeypatch):
        """With no crash-on-wake, every Look of an AGrid run is a cell
        exploration's, so the engine never builds its site index or its
        mover index; with full explore Looks the same run builds both."""
        instance = uniform_disk(n=600, rho=8.0, seed=0)
        built = []

        def recording(name, cls):
            def build(*args, **kwargs):
                built.append(name)
                return cls(*args, **kwargs)

            return build

        for full_looks in (False, True):
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(engine_mod, "GridHash", recording("sites", engine_mod.GridHash))
                patch.setattr(
                    engine_mod, "_MoverIndex", recording("movers", engine_mod._MoverIndex)
                )
                if full_looks:
                    full_explore_looks(patch)
                run = run_agrid(instance, ell=1)
            assert run.woke_all
            assert sorted(set(built)) == (["movers", "sites"] if full_looks else [])


def wake_digest(wake_times):
    """sha256 of the wake times, in wake order, as ``float.hex``."""
    text = json.dumps([[rid, t.hex()] for rid, t in wake_times.items()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestCrashAwareElection:
    """With crash-on-wake, every present cohort member elects the leader
    from a full Look at the round start, and waits there until every
    member has looked.  The records are those the engine gave at commit
    7272870, when each member left the corner right after its own Look;
    now no election Look finds a process in flight, so the mover index is
    never built, and each Look after the first at a corner and instant is
    a memo hit."""

    #: fragile_swarm (n, rho, seed, world_params) -> makespan, max and
    #: total energy (``float.hex``), snapshots and :func:`wake_digest`,
    #: all computed at commit 7272870 (``ell`` unpinned).
    RECORDS = [
        (60, 4.3, 0, {},
         "0x1.19b4f600c8896p+10", "0x1.7698675867a8cp+7", "0x1.87e25fac0eb39p+11",
         715, "e1f9ce791b4497e2cf5b7f22fc8484a76760be7b666132442ebb535e96baea50"),
        (60, 4.3, 1, {},
         "0x1.1a024a3007690p+10", "0x1.7863c7b8458d5p+7", "0x1.8de7466e89959p+11",
         715, "ca484900b8448d692146e1c93baa22552faaba12ff09a3e642deba62ac0f542d"),
        (60, 4.3, 2, {},
         "0x1.19782cf0bf1d7p+10", "0x1.7efb287bd2bd3p+7", "0x1.89d31da80ea24p+11",
         715, "907277d6c2c3f84eeadfc594e7988fc840d5c0c674ba28367c454c8b1cba2626"),
        (60, 4.3, 3, {},
         "0x1.f726743eff56ap+9", "0x1.700597cb63808p+7", "0x1.6ddb5233a1755p+11",
         571, "a5e1edbf338cbe7443f980d807be4a12fb1a1363f2043b7bc0b60dd3e7060865"),
        (300, 5.9, 0, {},
         "0x1.8bc2e19a53585p+10", "0x1.46681ccd78f3ep+6", "0x1.94324cfdbaca2p+12",
         1461, "02c32c12b9f7214cea5a2da7c83953499c7f31661945b677a38b160938cc6eb9"),
        (300, 5.9, 1, {},
         "0x1.8b884ff228214p+10", "0x1.43422e204528ap+6", "0x1.9178a8c432cf5p+12",
         1429, "2a96ad90704891dd01d44018335bef4599369da24c518df2f56bfcf72d16efce"),
        (300, 5.9, 2, {},
         "0x1.8beb957463858p+10", "0x1.461699b31da79p+6", "0x1.8ffb7b4869d72p+12",
         1397, "215ed0d379b48f49fdeac2bc1ee6ab80b97cdf44c61c4bd69d05b35be8893ff6"),
        (300, 5.9, 3, {},
         "0x1.8bcb2a56016cap+10", "0x1.2566c6e1e3ea8p+6", "0x1.93ddf3b931390p+12",
         1461, "9eef3e83e80a7b06f16a149190286bc3f90bd2021f3dd7776708009d5c9e4a25"),
        (1500, 9.6, 0, {},
         "0x1.5386b4b33cf09p+11", "0x1.504857a29655cp+6", "0x1.b54a4c9b63ae3p+14",
         4217, "3ca4484b3203718212c32ddcbb1e16e0e66db38df466bd5bd9ebccf8a746ed3c"),
        (1500, 9.6, 1, {},
         "0x1.53a3e2befe839p+11", "0x1.5cb6884883458p+6", "0x1.b526ac64c882ap+14",
         4217, "562007cd0453cafcf336caa800eee0ee41334ae4c67e468e89ee53464ae3d70c"),
        (1500, 9.6, 2, {},
         "0x1.53ac15c56972ap+11", "0x1.380147ba4db21p+6", "0x1.b52e87b4f0157p+14",
         4185, "c646b4906f03d827d904ee7f02ea125c213ec222d7932d68a66ff6fb3c31a7ef"),
        (1500, 9.6, 3, {},
         "0x1.538e9f4cf24b1p+11", "0x1.50ec2faf418b6p+6", "0x1.b49bfb860e304p+14",
         4185, "c125d9cb672872d313ee03296875cc0776e720965839c228958cf525ea920f30"),
        (1500, 9.6, 1, {"slow_fraction": 0.3, "crash_on_wake": 0.2},
         "0x1.5382eda3c8ca5p+12", "0x1.82cd1512405c8p+6", "0x1.91a1aa33904f2p+14",
         4058, "8f2c525b6968b50065c9a3472ea34931862128b088abc60e136eaa4f23ae4046"),
    ]

    @pytest.mark.parametrize(
        "n,rho,seed,world,makespan,max_energy,total_energy,snapshots,wakes",
        RECORDS,
        ids=[f"n{row[0]}-seed{row[2]}" + ("-slow" if row[3] else "") for row in RECORDS],
    )
    def test_election_looks_before_anyone_leaves(
        self, monkeypatch, n, rho, seed, world, makespan, max_energy, total_energy,
        snapshots, wakes,
    ):
        elections = []  # (time, corner, memo hit, in-flight Look-index entries)
        built = []
        look = engine_mod._HANDLERS[Look]

        def watched(engine, proc, action):
            # A crash-aware run's explorations take sleepers-only Looks:
            # its full Looks are the elections.
            if not action.sleepers_only:
                key = (engine.now, proc.position)
                elections.append((*key, key in engine._look_cache, len(engine._convoys)))
            return look(engine, proc, action)

        def movers(*args, **kwargs):
            built.append("movers")
            return mover_index(*args, **kwargs)

        mover_index = engine_mod._MoverIndex
        monkeypatch.setitem(engine_mod._HANDLERS, Look, watched)
        monkeypatch.setattr(engine_mod, "_MoverIndex", movers)
        request = RunRequest(
            algorithm="agrid", scenario="fragile_swarm",
            family_kwargs={"n": n, "rho": rho, "seed": seed}, world_params=world,
        )
        result = request.execute().result
        assert result.makespan.hex() == makespan
        assert result.max_energy.hex() == max_energy
        assert result.total_energy.hex() == total_energy
        assert result.snapshots == snapshots
        assert wake_digest(result.wake_times) == wakes
        assert elections
        assert all(in_flight == 0 for *_, in_flight in elections)
        assert not built
        seen = set()
        for time, corner, hit, _ in elections:
            assert hit == ((time, corner) in seen)
            seen.add((time, corner))
        assert len(seen) < len(elections)
