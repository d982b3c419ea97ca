"""Section 5: constant-approximation of rho_star from ell only."""

import pytest

from repro.core.radius_estimation import RadiusEstimate, radius_estimation_program
from repro.instances import beaded_path, uniform_disk
from repro.sim import Engine, SOURCE_ID


def estimate(instance, ell):
    sink = RadiusEstimate()
    world = instance.world()
    engine = Engine(world)
    engine.spawn(radius_estimation_program(ell, sink), [SOURCE_ID])
    result = engine.run()
    return sink, result


class TestEstimate:
    @pytest.mark.parametrize(
        "instance,ell",
        [
            (uniform_disk(n=60, rho=10.0, seed=3), 3),
            (uniform_disk(n=100, rho=20.0, seed=1), 4),
            (beaded_path(n=30, spacing=1.0), 1),
        ],
        ids=["disk10", "disk20", "path30"],
    )
    def test_sandwich(self, instance, ell):
        sink, _ = estimate(instance, ell)
        assert sink.finished
        # Upper bound certified by the empty separator.
        assert instance.rho_star <= sink.upper_bound() + 1e-6
        # Constant approximation: not absurdly above rho_star.
        assert sink.rho_hat <= 8.0 * max(instance.rho_star, ell)

    def test_empty_swarm(self):
        from repro.instances import Instance

        sink, _ = estimate(Instance(positions=(), name="empty"), ell=2)
        assert sink.finished
        assert sink.rho_hat == pytest.approx(4.0)  # first width 2*ell

    def test_team_recruited(self):
        inst = uniform_disk(n=80, rho=10.0, seed=5)
        sink, _ = estimate(inst, ell=2)
        assert sink.team_size > 1

    def test_overhead_is_bounded(self):
        """Section 5: the estimate costs O(ell^2 log ell + rho) — it must
        be comparable to (not wildly above) one ASeparator run."""
        from repro.core.runner import run_aseparator

        inst = uniform_disk(n=60, rho=12.0, seed=3)
        sink, result = estimate(inst, ell=3)
        run = run_aseparator(inst, ell=3)
        assert result.termination_time <= 5.0 * run.makespan + 100.0
