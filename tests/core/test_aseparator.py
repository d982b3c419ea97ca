"""ASeparator integration: full wake-up, phase structure, makespan shape."""

import pytest

from repro.core.runner import run_aseparator
from repro.instances import (
    annulus,
    beaded_path,
    clusters,
    connected_walk,
    grid_lattice,
    spiral,
    two_clusters_bridge,
    uniform_disk,
)
from repro.sim import Trace

FAMILIES = [
    uniform_disk(n=60, rho=12.0, seed=7),
    uniform_disk(n=120, rho=16.0, seed=1),
    beaded_path(n=40, spacing=1.0),
    beaded_path(n=25, spacing=2.0, seed=3, wiggle=0.5),
    clusters(n=80, n_clusters=5, rho=15.0, seed=2),
    annulus(n=60, r_inner=5, r_outer=10, seed=4),
    grid_lattice(side=7, spacing=1.5),
    connected_walk(n=50, step=1.0, seed=9),
    spiral(n=60, spacing=1.0),
    two_clusters_bridge(n=40, gap=20.0, spacing=2.0, seed=5),
]


class TestCorrectness:
    @pytest.mark.parametrize(
        "instance", FAMILIES, ids=[inst.name for inst in FAMILIES]
    )
    def test_wakes_every_robot(self, instance):
        run = run_aseparator(instance)
        assert run.woke_all, f"{instance.name}: {run.result.summary()}"

    def test_single_robot(self):
        from repro.instances import Instance
        from repro.geometry import Point

        inst = Instance(positions=(Point(0.5, 0.5),), name="one")
        run = run_aseparator(inst)
        assert run.woke_all
        # O(rho + ell^2 log(rho/ell)) with rho = ell = 1: a small constant.
        assert run.makespan <= 40.0

    def test_loose_inputs_still_correct(self):
        """The algorithm must work for ANY admissible upper bounds."""
        inst = uniform_disk(n=40, rho=8.0, seed=0)
        ell, rho = inst.default_inputs()
        run = run_aseparator(inst, ell=ell + 2, rho=rho * 2)
        assert run.woke_all

    def test_deterministic(self):
        inst = uniform_disk(n=30, rho=8.0, seed=5)
        a = run_aseparator(inst)
        b = run_aseparator(inst)
        assert a.makespan == b.makespan
        assert a.result.wake_times == b.result.wake_times


class TestPhaseStructure:
    def test_trace_contains_figure3_phases(self):
        """The Figure 3 pseudocode structure must show in the trace: init,
        then (for multi-round instances) partition / explore / recruit /
        reorganize, and a terminate phase per leaf square (FIG3 check)."""
        inst = uniform_disk(n=300, rho=16.0, seed=0)
        trace = Trace()
        run = run_aseparator(inst, trace=trace)
        assert run.woke_all
        labels = {e.data["label"] for e in trace.of_kind("phase")}
        assert "asep:init" in labels
        assert "asep:partition" in labels
        assert "asep:explore" in labels
        assert "asep:recruit" in labels
        assert "asep:reorganize" in labels
        assert "asep:terminate" in labels

    def test_phase_order_per_round(self):
        inst = uniform_disk(n=300, rho=16.0, seed=0)
        trace = Trace()
        run_aseparator(inst, trace=trace)
        events = [
            (e.time, e.data["label"])
            for e in trace.of_kind("phase")
        ]
        # Initialization happens strictly first.
        assert events[0][1] == "asep:init"
        # A partition is always eventually followed by a reorganization.
        partitions = [t for t, l in events if l == "asep:partition"]
        reorgs = [t for t, l in events if l == "asep:reorganize"]
        assert len(reorgs) == len(partitions)
        assert all(any(r > p for r in reorgs) for p in partitions)

    def test_wake_conflict_freedom(self):
        """Ownership discipline: every robot woken exactly once (the engine
        would raise on a double wake; this asserts the positive side)."""
        inst = clusters(n=80, n_clusters=5, rho=15.0, seed=2)
        trace = Trace()
        run = run_aseparator(inst, trace=trace)
        woken = [e.data["robot"] for e in trace.wake_events()]
        assert len(woken) == len(set(woken)) == inst.n
        assert run.woke_all


class TestMakespanShape:
    def test_scales_linearly_in_rho_at_fixed_ell(self):
        """Thm 1: at fixed ell, makespan grows ~linearly with rho.

        Beaded paths pin ``ell_star`` to the pitch exactly, so the
        ``makespan / rho`` ratio must stay essentially flat while ``rho``
        quadruples.
        """
        ratios = []
        for n in (8, 16, 32):
            inst = beaded_path(n=n, spacing=1.0)
            run = run_aseparator(inst)
            assert run.woke_all
            ratios.append(run.makespan / inst.rho_star)
        assert max(ratios) <= 1.25 * min(ratios)

    def test_makespan_at_least_radius(self):
        inst = uniform_disk(n=50, rho=12.0, seed=3)
        run = run_aseparator(inst)
        assert run.makespan >= inst.rho_star
